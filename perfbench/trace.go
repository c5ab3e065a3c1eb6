package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/asyncnet"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/pgrid"
	"repro/internal/plan"
	"repro/internal/qcache"
	"repro/internal/simnet"
	"repro/internal/strdist"
	"repro/internal/triples"
	"repro/internal/vql"
)

// The traced run replays a seeded sample of the workload's operations
// through the layer functions themselves and records a span around each
// call. The spans stay in memory and are written out when the run ends; the
// per-layer metrics are computed from them. No tracing runs inside the
// engine: every span is opened and closed here, around a public call.

// span is one timed call. Spans of one operation share op; parent indexes
// the enclosing span (-1 for an operation's root). counts records the work
// the call did, measured at the same boundary.
type span struct {
	Name   string           `json:"name"`
	Op     int              `json:"op"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.t0).Nanoseconds() }

func (t *tracer) count(i int, name string, v int64) {
	if t.spans[i].Counts == nil {
		t.spans[i].Counts = make(map[string]int64, 4)
	}
	t.spans[i].Counts[name] += v
}

// newOp opens the root span of the next operation.
func (t *tracer) newOp(name string) (op, root int) {
	t.ops++
	return t.ops, t.begin(name, t.ops, -1)
}

// write stores the spans as JSON lines after a header naming the run.
func (t *tracer) write(path, stamp string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]string{"run": stamp}); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// locator finds the peer responsible for a key, so the traced run can time
// the partition scan (Peer.LocalPrefix) that a multicast triggers there. It
// repeats the grid's order-preserving hash: a key maps to the number of
// distinct balancing-sample keys at or below it, rendered in a fixed bit
// width, and the responsible peer is the one whose trie path prefixes that
// image. The replay checks the result: the located scans must return as many
// postings as the multicast did.
type locator struct {
	anchors []keys.Key
	width   int
	owner   map[string]simnet.NodeID // partition path -> a member
}

func newLocator(sample []keys.Key) *locator {
	s := append([]keys.Key(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i].Less(s[j]) })
	anchors := make([]keys.Key, 0, len(s))
	for i, k := range s {
		if i == 0 || !k.Equal(s[i-1]) {
			anchors = append(anchors, k)
		}
	}
	width := 1
	for 1<<uint(width) <= len(anchors)+1 {
		width++
	}
	return &locator{anchors: anchors, width: width}
}

// refresh reads the current partition paths; membership changes move them.
func (l *locator) refresh(g *pgrid.Grid) {
	l.owner = make(map[string]simnet.NodeID, g.PeerCount())
	for id := 0; id < g.PeerCount(); id++ {
		if p, err := g.Peer(simnet.NodeID(id)); err == nil {
			l.owner[p.Path().String()] = p.ID()
		}
	}
}

func (l *locator) peerFor(k keys.Key) (simnet.NodeID, bool) {
	rank := sort.Search(len(l.anchors), func(i int) bool { return l.anchors[i].Compare(k) > 0 })
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(rank)<<uint(64-l.width))
	h := keys.FromPackedBits(buf[:], l.width)
	for n := 0; n <= h.Len(); n++ {
		if id, ok := l.owner[h.Prefix(n).String()]; ok {
			return id, true
		}
	}
	return 0, false
}

// layerBuild times the three load layers core.Open chains: planning the
// load, building the grid over the plan's balancing sample, and applying the
// plan to a fresh store. It returns the sample for the locator.
func (r *run) layerBuild(tr *tracer) ([]keys.Key, error) {
	cfg := r.w.config()
	g := cfg.Grid
	if cfg.Runtime == core.RuntimeActor {
		g.Exec = pgrid.ExecActor
		g.Service = simnet.VTimeOf(cfg.Service)
	}
	runtime.GC()
	op, root := tr.newOp("op.setup")
	net := simnet.New(cfg.Peers)
	net.SetLatency(asyncnet.Func(cfg.Latency))
	sp := tr.begin("ops.plan_load", op, root)
	lp, err := ops.PlanLoadStream(r.in.tuples, cfg.Store, 0, 0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sample := append([]keys.Key(nil), lp.SampleKeys()...)
	sp = tr.begin("pgrid.build", op, root)
	grid, err := pgrid.Build(net, cfg.Peers, lp.SampleKeys(), g)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	lp.ReleaseSample()
	sp = tr.begin("ops.apply_load", op, root)
	err = ops.NewStore(grid, cfg.Store).ApplyLoadPlan(lp, 0)
	tr.end(sp)
	tr.end(root)
	return sample, err
}

// tracedSession wraps a session with the tracer and the per-run layer
// tallies that do not fit a span. Every operation runs through the
// session's own code, which records a span around each engine call while
// s.tr is set; a query is then replayed layer by layer.
type tracedSession struct {
	*session
	tr    *tracer
	loc   *locator
	cache ops.CacheStats // summed around core.query calls
	queue int64          // summed mailbox wait of core.query calls (µs)
	calls int            // core.query calls
}

var opSpan = [...]string{opQuery: "op.query", opInsert: "op.write", opDelete: "op.write", opChurn: "op.churn"}

func (t *tracedSession) do(kind opKind) {
	s, tr := t.session, t.tr
	s.trOp, s.trRoot = tr.newOp(opSpan[kind])
	s.tr = tr
	if kind != opQuery {
		s.do(kind, nil)
		s.tr = nil
		tr.end(s.trRoot)
		if kind == opChurn {
			t.loc.refresh(s.eng.Grid())
		}
		return
	}

	store := s.eng.Store()
	cs := store.CacheStats()
	l, cost := s.query(nil)
	s.tr = nil
	delta := store.CacheStats().Sub(cs)
	t.cache.Postings = addStats(t.cache.Postings, delta.Postings)
	t.cache.Results = addStats(t.cache.Results, delta.Results)
	t.queue += cost.Queue
	t.calls++

	text := similarityQuery(s.w.attr, l.needle, l.d)
	got, err := t.replay(s.trOp, s.trRoot, l.from, text, l.needle, l.d)
	tr.end(s.trRoot)
	s.log = append(s.log, logged{kind: opQuery, needle: l.needle, d: l.d, got: got, err: err})
}

func addStats(a, b qcache.Stats) qcache.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Puts += b.Puts
	a.Evictions += b.Evictions
	a.Invalidations += b.Invalidations
	return a
}

// at returns a tally starting where the client's timeline ends, for a layer
// call that takes an explicit start time.
func (t *tracedSession) at() (*metrics.Tally, simnet.VTime) {
	var mt metrics.Tally
	start := t.tally.PathEnd()
	mt.ObservePath(0, start)
	return &mt, simnet.VTime(start)
}

// replay answers the query again by calling each layer of Algorithm 2 in
// turn: parse, plan, probe generation, the batched multicast, the partition
// scans it caused, the candidate filter, the short-string fallback,
// reconstruction and verification.
func (t *tracedSession) replay(op, root int, from simnet.NodeID, text, needle string, d int) (fingerprint, error) {
	s, tr := t.session, t.tr
	store, grid := s.eng.Store(), s.eng.Grid()

	sp := tr.begin("vql.parse", op, root)
	q, err := vql.Parse(text)
	tr.end(sp)
	if err != nil {
		return fingerprint{}, err
	}
	sp = tr.begin("plan.build", op, root)
	_, err = plan.Build(q, s.eng.Config().Plan)
	tr.end(sp)
	if err != nil {
		return fingerprint{}, err
	}

	sp = tr.begin("keyscheme.probe", op, root)
	ps := store.Scheme().Probes(s.w.attr, needle, d, false)
	tr.end(sp)
	tr.count(sp, "keys", int64(len(ps.Keys)))

	mt, start := t.at()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = tr.begin("pgrid.multicast", op, root)
	posts, _, err := grid.MultiLookupAt(mt, from, ps.Keys, start)
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	t.tally.AddTally(*mt)
	if err != nil {
		return fingerprint{}, err
	}
	tr.count(sp, "alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
	tr.count(sp, "msgs", mt.Messages)
	tr.count(sp, "hops", mt.Hops)
	tr.count(sp, "postings", int64(len(posts)))

	scanned := 0
	for _, k := range ps.Keys {
		id, ok := t.loc.peerFor(k)
		if !ok {
			return fingerprint{}, fmt.Errorf("no partition for probe key %v", k)
		}
		p, err := grid.Peer(id)
		if err != nil {
			return fingerprint{}, err
		}
		sp = tr.begin("btree.prefix_scan", op, root)
		n := len(p.LocalPrefix(k))
		tr.end(sp)
		tr.count(sp, "postings", int64(n))
		scanned += n
	}
	if scanned != len(posts) {
		return fingerprint{}, fmt.Errorf("partition scans found %d postings, the multicast %d", scanned, len(posts))
	}

	cands := make(map[string]bool)
	sp = tr.begin("keyscheme.accept", op, root)
	for _, p := range posts {
		if p.Index == ps.Kind && ps.Accept(p) {
			cands[p.Triple.OID] = true
		}
	}
	tr.end(sp)
	tr.count(sp, "postings", int64(len(posts)))
	tr.count(sp, "accepted", int64(len(cands)))

	cfg := store.Config()
	if !cfg.DisableShortIndex && len(needle) < store.Scheme().ShortThreshold(d) {
		filter := func(p triples.Posting) bool {
			return p.Index == triples.IndexShort && p.Triple.Val.Kind == triples.KindString &&
				strdist.WithinDistance(needle, p.Triple.Val.Str, d)
		}
		mt, start := t.at()
		sp = tr.begin("pgrid.short_scan", op, root)
		short, _, err := grid.PrefixQueryAt(mt, from, triples.ShortValuePrefix(s.w.attr),
			pgrid.RangeOptions{Filter: filter, FilterBytes: len(needle) + 4}, start)
		tr.end(sp)
		t.tally.AddTally(*mt)
		if err != nil {
			return fingerprint{}, err
		}
		for _, p := range short {
			cands[p.Triple.OID] = true
		}
	}

	oids := make([]string, 0, len(cands))
	for oid := range cands {
		oids = append(oids, oid)
	}
	sort.Strings(oids)
	mt, _ = t.at()
	sp = tr.begin("ops.reconstruct", op, root)
	objs, err := store.LookupObjects(mt, from, oids)
	tr.end(sp)
	t.tally.AddTally(*mt)
	if err != nil {
		return fingerprint{}, err
	}
	tr.count(sp, "msgs", mt.Messages)

	var f fingerprint
	checked := 0
	sp = tr.begin("strdist.verify", op, root)
	for _, o := range objs {
		for _, fl := range o.Fields {
			if fl.Name != s.w.attr || fl.Val.Kind != triples.KindString {
				continue
			}
			checked++
			if _, ok := strdist.LevenshteinBounded(needle, fl.Val.Str, d); ok {
				f.add(o.OID, fl.Val.Str)
			}
		}
	}
	tr.end(sp)
	tr.count(sp, "candidates", int64(checked))
	tr.count(sp, "matches", int64(f.n))
	return f, nil
}

// busy snapshots per-peer busy time on an actor engine (nil otherwise).
func busy(eng *core.Engine) map[simnet.NodeID]simnet.VTime {
	rt := eng.Runtime()
	if rt == nil {
		return nil
	}
	out := make(map[simnet.NodeID]simnet.VTime)
	for _, l := range rt.AllStats() {
		out[l.ID] = l.Stats.Busy
	}
	return out
}

// hottestShare is the busiest peer's share of all busy time since before.
func hottestShare(eng *core.Engine, before map[simnet.NodeID]simnet.VTime) float64 {
	after := busy(eng)
	var total, top simnet.VTime
	for id, b := range after {
		d := b - before[id]
		total += d
		if d > top {
			top = d
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// traced performs a traced run and returns the per-layer metrics.
func (r *run) traced(dir, stamp string) ([]metric, error) {
	tr := &tracer{t0: time.Now()}
	var sample []keys.Key
	for i := 0; i < setupRuns; i++ {
		sm, err := r.layerBuild(tr)
		if err != nil {
			return nil, err
		}
		sample = sm
	}
	loc := newLocator(sample)
	sample = nil
	r.progress("layer builds done")

	eng, err := r.open()
	if err != nil {
		return nil, err
	}
	s := newSession(r.w, &r.in, eng, newModel(r.in.tuples), &r.out, r.seed)
	s.warm(warmQueries)
	loc.refresh(eng.Grid())
	budget := time.Duration(r.seconds * float64(time.Second))

	// Blocks of the mix alternate between untraced and traced, so both
	// stretches see the caches equally warm and the tracing overhead
	// compares like with like.
	untraced := newPhase()
	mix := &mixer{rng: rand.New(rand.NewSource(r.seed ^ 0x6b6b6b)), mix: r.w.mix}
	ts := &tracedSession{session: s, tr: tr, loc: loc}
	busyBefore := busy(eng)
	t0 := time.Now()
	for n := 0; (n < 4*mixBlock || time.Since(t0) < budget) && n < 6000; n++ {
		k := mix.next()
		if (n/mixBlock)%2 == 1 {
			ts.do(k)
			continue
		}
		s.do(k, untraced)
		if k == opChurn {
			loc.refresh(eng.Grid())
		}
	}
	hot := hottestShare(eng, busyBefore)
	s.verify()
	r.progress("traced: %d operations, %d spans", tr.ops, len(tr.spans))

	queue := metric{unit: "ms", value: float64(ts.queue) / 1e3 / float64(max(1, ts.calls)), n: ts.calls}
	if r.w.openLoop {
		// The closed loop queues only behind its own messages; the traced
		// ladder point shows the waits concurrent arrivals impose.
		queue.n = arrivalsAt(ladderRef)
		if queue.value, hot, err = r.tracedPoint(tr); err != nil {
			return nil, err
		}
	}

	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.seed))
	if err := tr.write(path, stamp); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d in %s\n", len(tr.spans), path)
	return layerMetrics(tr, ts.cache, untraced, queue, hot), nil
}

// tracedPoint offers the reference ladder rate to a fresh warmed engine and
// returns the mean mailbox wait per arrival (ms) and the hottest peer's busy
// share.
func (r *run) tracedPoint(tr *tracer) (float64, float64, error) {
	eng, s, err := r.warmEngine(ladderWarm)
	if err != nil {
		return 0, 0, err
	}
	sched := schedule(r.w, &r.in, r.seed, arrivalsAt(ladderRef))
	before := busy(eng)
	res, _ := offer(eng, s, sched, ladderRef, tr.t0)
	var queue int64
	for i, a := range res {
		op, root := tr.newOp("op.arrival")
		tr.spans[root].Start, tr.spans[root].End = a.start, a.end
		sp := tr.begin("core.query_open", op, root)
		tr.spans[sp].Start, tr.spans[sp].End = a.start, a.end
		tr.count(sp, "msgs", a.cost.Messages)
		tr.count(sp, "queue_us", a.cost.Queue)
		queue += a.cost.Queue
		want := s.model.answer(sched[i].needle, sched[i].d)
		r.out.add(a.err == nil && !a.degraded && a.got == want,
			fmt.Sprintf("traced arrival %d dist(%q) <= %d: got %v, want %v (err %v)",
				i, sched[i].needle, sched[i].d, a.got, want, a.err))
	}
	return float64(queue) / 1e3 / float64(len(res)), hottestShare(eng, before), nil
}
