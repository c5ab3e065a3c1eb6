package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// session drives one engine from one client goroutine in a closed loop. Its
// operations chain on one virtual timeline (the client tally), and every
// operation is logged so verify can check it against the model afterwards,
// outside the timed calls and the allocation window.
type session struct {
	w       *workload
	in      *inputs
	eng     *core.Engine
	model   *model
	outcome *outcome

	rng     *rand.Rand // initiators and delete/leave targets
	needles *needles
	tally   metrics.Tally
	// texts holds the VQL text of every corpus needle at d = 1 and 2,
	// rendered before the measured loop so it allocates no query text.
	texts [2][]string

	log     []logged
	queries int
	inserts int
	live    []entry // inserted tuples not yet deleted

	// tr, when set, records a span around each engine call under the
	// operation trOp (root span trRoot); see trace.go.
	tr           *tracer
	trOp, trRoot int
}

// loopCap sizes the operation log and the sample slices, so a closed loop
// of up to this many operations makes no allocations of its own. The
// open-loop workload's fixed closed loop is the longest.
const loopCap = 1 << 15

// logged is one issued operation awaiting verification.
type logged struct {
	kind     opKind
	needle   string
	d        int
	from     simnet.NodeID
	oid, val string
	got      fingerprint
	err      error
	degraded bool
}

// outcome counts the operations a run attempted and those that failed: an
// error, a degraded answer, or an answer that differs from the model's.
type outcome struct {
	attempted, failed int
	firstFailure      string
}

func (o *outcome) add(ok bool, what string) {
	o.attempted++
	if !ok {
		o.failed++
		if o.firstFailure == "" {
			o.firstFailure = what
		}
	}
}

// phase collects the timed samples of one measured stretch of a session.
type phase struct {
	queryWall []float64 // ms
	// queryVlat holds the virtual response times of queries that sent
	// messages; an answer served from the initiator's cache takes none.
	queryVlat            []float64 // ms
	writeWall, churnWall []float64 // ms
	ops                  int
	msgs, bytes          int64
	allocBytes, allocs   uint64 // heap allocation over the phase
}

func newPhase() *phase {
	return &phase{queryWall: make([]float64, 0, loopCap), queryVlat: make([]float64, 0, loopCap),
		writeWall: make([]float64, 0, loopCap/4), churnWall: make([]float64, 0, loopCap/16)}
}

func (p *phase) add(kind opKind, wall time.Duration, cost metrics.Tally) {
	if p == nil {
		return
	}
	ms := float64(wall.Nanoseconds()) / 1e6
	switch kind {
	case opQuery:
		p.queryWall = append(p.queryWall, ms)
		if cost.Messages > 0 {
			p.queryVlat = append(p.queryVlat, float64(cost.Latency)/1e3)
		}
	case opInsert, opDelete:
		p.writeWall = append(p.writeWall, ms)
	case opChurn:
		p.churnWall = append(p.churnWall, ms)
	}
	p.ops++
	p.msgs += cost.Messages
	p.bytes += cost.Bytes
}

func newSession(w *workload, in *inputs, eng *core.Engine, m *model, out *outcome, seed int64) *session {
	s := &session{
		w: w, in: in, eng: eng, model: m, outcome: out,
		rng:     rand.New(rand.NewSource(seed ^ 0x1d1d1d)),
		needles: newNeedles(w, in, seed^0x2e2e2e),
		log:     make([]logged, 0, loopCap),
	}
	for d := range s.texts {
		s.texts[d] = make([]string, len(in.corpus))
		for i, v := range in.corpus {
			s.texts[d][i] = similarityQuery(w.attr, v, d+1)
		}
	}
	return s
}

// do issues one operation of the given kind, recording it in ph when ph is
// non-nil.
func (s *session) do(kind opKind, ph *phase) {
	switch kind {
	case opQuery:
		s.query(ph)
	case opInsert:
		s.insert(ph)
	case opDelete:
		s.delete(ph)
	case opChurn:
		s.churn(ph)
	}
}

// begin opens a span around an engine call when the session is traced; it
// returns -1 otherwise, which end and count ignore.
func (s *session) begin(name string) int {
	if s.tr == nil {
		return -1
	}
	return s.tr.begin(name, s.trOp, s.trRoot)
}

func (s *session) end(sp int) {
	if sp >= 0 {
		s.tr.end(sp)
	}
}

func (s *session) count(sp int, name string, v int64) {
	if sp >= 0 {
		s.tr.count(sp, name, v)
	}
}

// initiator draws a uniformly random live peer.
func (s *session) initiator() simnet.NodeID {
	g := s.eng.Grid()
	for {
		id := simnet.NodeID(s.rng.Intn(g.PeerCount()))
		if _, err := g.Peer(id); err == nil {
			return id
		}
	}
}

// query issues the next similarity query: the next needle, with d
// alternating 1, 2, from a random live initiator. It returns the logged
// query and its cost.
func (s *session) query(ph *phase) (logged, metrics.Tally) {
	i, d := s.needles.next(), 1+s.queries%2
	s.queries++
	from := s.initiator()
	text := s.texts[d-1][i]
	before := s.tally.Snapshot()
	sp := s.begin("core.query")
	t0 := time.Now()
	res, err := s.eng.QueryFrom(from, &s.tally, text)
	wall := time.Since(t0)
	s.end(sp)
	cost := s.tally.Snapshot().Sub(before)
	s.count(sp, "msgs", cost.Messages)
	ph.add(opQuery, wall, cost)
	l := logged{kind: opQuery, needle: s.in.corpus[i], d: d, from: from,
		got: resultFingerprint(res), err: err, degraded: cost.Unanswered > 0}
	s.log = append(s.log, l)
	return l, cost
}

// nextInsert names the next tuple to insert.
func (s *session) nextInsert() entry {
	e := entry{oid: fmt.Sprintf("n%08d", s.inserts), val: s.in.inserts[s.inserts%len(s.in.inserts)]}
	s.inserts++
	return e
}

func (s *session) tuple(e entry) triples.Tuple {
	return triples.Tuple{OID: e.oid, Fields: []triples.Field{{Name: s.w.attr, Val: triples.String(e.val)}}}
}

func (s *session) insert(ph *phase) {
	e := s.nextInsert()
	tu := s.tuple(e)
	from := s.initiator()
	before := s.tally.Snapshot()
	sp := s.begin("ops.insert")
	t0 := time.Now()
	err := s.eng.Store().InsertTuple(&s.tally, from, tu)
	wall := time.Since(t0)
	s.end(sp)
	ph.add(opInsert, wall, s.tally.Snapshot().Sub(before))
	if err == nil {
		s.live = append(s.live, e)
	}
	s.log = append(s.log, logged{kind: opInsert, oid: e.oid, val: e.val, err: err})
}

// takeLive removes and returns a random inserted tuple that is still live.
func (s *session) takeLive() (entry, bool) {
	if len(s.live) == 0 {
		return entry{}, false
	}
	i := s.rng.Intn(len(s.live))
	e := s.live[i]
	s.live[i] = s.live[len(s.live)-1]
	s.live = s.live[:len(s.live)-1]
	return e, true
}

// delete removes an earlier insert; with none live it inserts instead.
func (s *session) delete(ph *phase) {
	e, ok := s.takeLive()
	if !ok {
		s.insert(ph)
		return
	}
	tr := triples.Triple{OID: e.oid, Attr: s.w.attr, Val: triples.String(e.val)}
	from := s.initiator()
	before := s.tally.Snapshot()
	sp := s.begin("ops.delete")
	t0 := time.Now()
	err := s.eng.Store().DeleteTriple(&s.tally, from, tr)
	wall := time.Since(t0)
	s.end(sp)
	ph.add(opDelete, wall, s.tally.Snapshot().Sub(before))
	s.log = append(s.log, logged{kind: opDelete, oid: e.oid, val: e.val, err: err})
}

// leaveCandidate draws a random live peer that shares its partition with
// another member: P-Grid refuses the departure of a partition's sole owner.
func (s *session) leaveCandidate() (simnet.NodeID, bool) {
	g := s.eng.Grid()
	for try := 0; try < 64; try++ {
		id := simnet.NodeID(s.rng.Intn(g.PeerCount()))
		if p, err := g.Peer(id); err == nil && len(p.Replicas()) > 0 {
			return id, true
		}
	}
	return 0, false
}

// churn runs one membership cycle: a Join, then the Leave of a random peer
// that shares its partition, which keeps the grid's size steady. P-Grid
// refuses the departure of a partition's sole owner, so on grids without
// replicas a cycle is usually the Join alone. The cycle's cost is the Join's
// tally plus the overlay traffic the Leave caused, read from the network's
// collector since Engine.Leave returns no tally.
func (s *session) churn(ph *phase) {
	sp := s.begin("pgrid.join")
	t0 := time.Now()
	_, cost, err := s.eng.Join()
	s.end(sp)
	s.count(sp, "wire_bytes", cost.Bytes)
	if err == nil {
		if id, ok := s.leaveCandidate(); ok {
			net0 := s.eng.Net().Collector().Total()
			sp = s.begin("pgrid.leave")
			err = s.eng.Leave(id)
			s.end(sp)
			left := s.eng.Net().Collector().Total().Sub(net0)
			s.count(sp, "wire_bytes", left.Bytes)
			cost.Messages += left.Messages
			cost.Bytes += left.Bytes
		}
	}
	ph.add(opChurn, time.Since(t0), cost)
	s.log = append(s.log, logged{kind: opChurn, err: err})
}

// verify checks every logged operation in issue order, replaying its writes
// into the model so each query is compared with the tuples live when it ran.
func (s *session) verify() {
	for _, l := range s.log {
		switch l.kind {
		case opQuery:
			want := s.model.answer(l.needle, l.d)
			ok := l.err == nil && !l.degraded && l.got == want
			s.outcome.add(ok, fmt.Sprintf("query dist(%q) <= %d: got %v, want %v (err %v, degraded %v)",
				l.needle, l.d, l.got, want, l.err, l.degraded))
		case opInsert:
			if l.err == nil {
				s.model.insert(l.oid, l.val)
			}
			s.outcome.add(l.err == nil, fmt.Sprintf("insert %s: %v", l.oid, l.err))
		case opDelete:
			ok := l.err == nil && s.model.remove(l.oid)
			s.outcome.add(ok, fmt.Sprintf("delete %s: %v", l.oid, l.err))
		case opChurn:
			s.outcome.add(l.err == nil, fmt.Sprintf("membership change: %v", l.err))
		}
	}
	s.log = s.log[:0]
}

// warm issues n untimed queries, so measurement starts with lazily built
// state in place (and, on cached workloads, with warm caches).
func (s *session) warm(n int) {
	for i := 0; i < n; i++ {
		s.query(nil)
	}
	s.verify()
}
