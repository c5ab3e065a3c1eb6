package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// The open-loop ladder offers Poisson arrivals on the virtual clock at fixed
// rates. A point offers its rate for ladderSpan virtual seconds, about three
// times the unloaded p99 response time, so a sustained rate shows the waits it
// causes; ladderMax caps a point's arrivals to bound its wall time, so the
// top rate offers a short burst instead. Offering 16000 arrivals per virtual
// second took about 14 s of wall time per virtual second on a 2-vCPU host,
// which rules out full-span points near the knee. Every rate point
// starts from the same state: a freshly opened engine warmed by the same
// seeded closed loop, so no point inherits the caches an earlier point
// filled. The points ask the same questions in the same order; a faster
// rate asks them sooner.
var (
	// ladderRates are arrivals per virtual second. 2000/s offered for the
	// full span queues almost nothing; the 256000/s burst of ladderMax
	// arrivals pushes the virtual p99 past the limit, so the two straddle
	// the knee. A rate between them would cost another 20 s of wall time
	// per run.
	ladderRates = []float64{2000, 256000}
	// ladderRef is the rate whose response times are reported as vlat_*.
	ladderRef = 2000.0
	// kneeLimitMS is the virtual p99 response time a rate must meet to count
	// towards knee_qps.
	kneeLimitMS = 1000.0
)

const (
	ladderSpan = 3.0 // virtual seconds per point
	ladderMax  = 20000
	// ladderWarm is the closed loop that warms each point's engine; it
	// fills the caches with the hot titles, as a long-running deployment
	// would have them.
	ladderWarm = 2000
)

// arrivalsAt is the number of arrivals a point at rate offers.
func arrivalsAt(rate float64) int { return min(ladderMax, int(rate*ladderSpan)) }

type arrival struct {
	offset float64 // seconds after the first arrival at one arrival per second
	needle string
	d      int
	from   simnet.NodeID
	text   string
}

// schedule draws n arrivals at unit rate; a point at rate r offers a prefix
// of them with the offsets divided by r.
func schedule(w *workload, in *inputs, seed int64, n int) []arrival {
	rng := rand.New(rand.NewSource(seed ^ 0x3f3f3f))
	nd := newNeedles(w, in, seed^0x4a4a4a)
	out := make([]arrival, n)
	clock := 0.0
	for i := range out {
		if i > 0 {
			clock += rng.ExpFloat64()
		}
		needle, d := in.corpus[nd.next()], 1+i%2
		out[i] = arrival{offset: clock, needle: needle, d: d,
			from: simnet.NodeID(rng.Intn(w.peers)), text: similarityQuery(w.attr, needle, d)}
	}
	return out
}

// point is one measured ladder rate.
type point struct {
	rate float64
	// sojourns are the virtual response times, arrival to completion, of
	// the arrivals that sent messages (cache hits take no virtual time).
	sojourns []float64 // ms
	// early and late are the mean sojourns of the first and last third of
	// all arrivals: a growing backlog shows as late > early.
	early, late float64
	queueMS     float64 // mean mailbox wait per arrival
	arrivals    int
	span        float64 // virtual seconds from the first arrival to the last
	wall        time.Duration
}

func (p point) p99() float64 { return quantile(p.sojourns, 0.99) }

// keepsPace reports whether completions kept up with arrivals: the last
// third of the arrivals waited no longer than the first third, within 50%.
func (p point) keepsPace() bool { return p.late <= 1.5*p.early+10 }

// meets reports whether the point stays within the knee limit without a
// growing backlog.
func (p point) meets() bool { return p.p99() <= kneeLimitMS && p.keepsPace() }

type arrivalResult struct {
	start, end int64 // wall ns since the clock offer was given
	soj        int64
	cost       metrics.Tally
	got        fingerprint
	err        error
	degraded   bool
}

// offer runs one ladder point on eng, which s warmed: the arrivals start
// 1 ms after the warm-up's timeline ends. Each arrival records its wall
// start and end relative to clock.
func offer(eng *core.Engine, s *session, sched []arrival, rate float64, clock time.Time) ([]arrivalResult, time.Duration) {
	startUS := s.tally.PathEnd()
	if rt := eng.Runtime(); rt != nil && int64(rt.Now()) > startUS {
		startUS = int64(rt.Now())
	}
	startUS += 1000
	res := make([]arrivalResult, len(sched))
	t0 := time.Now()
	eng.Concurrent(len(sched), func(i int) {
		a := sched[i]
		at := startUS + int64(a.offset/rate*1e6)
		var ct metrics.Tally
		ct.ObservePath(0, at)
		begin := time.Since(clock).Nanoseconds()
		r, err := eng.QueryFrom(a.from, &ct, a.text)
		end := time.Since(clock).Nanoseconds()
		c := ct.Snapshot()
		res[i] = arrivalResult{start: begin, end: end, soj: c.Latency - at, cost: c, got: resultFingerprint(r),
			err: err, degraded: c.Unanswered > 0}
	})
	return res, time.Since(t0)
}

// ladder measures every rate point and checks every answer.
func (r *run) ladder() ([]point, error) {
	top := ladderRates[len(ladderRates)-1]
	all := schedule(r.w, &r.in, r.seed, arrivalsAt(top))
	var out []point
	for _, rate := range ladderRates {
		eng, s, err := r.warmEngine(ladderWarm)
		if err != nil {
			return nil, err
		}
		sched := all[:arrivalsAt(rate)]
		res, wall := offer(eng, s, sched, rate, time.Now())
		pt := point{rate: rate, wall: wall, arrivals: len(sched), span: sched[len(sched)-1].offset / rate}
		var queue int64
		third := len(res) / 3
		for i, a := range res {
			if a.cost.Messages > 0 {
				pt.sojourns = append(pt.sojourns, float64(a.soj)/1e3)
			}
			switch {
			case i < third:
				pt.early += float64(a.soj) / 1e3 / float64(third)
			case i >= len(res)-third:
				pt.late += float64(a.soj) / 1e3 / float64(third)
			}
			queue += a.cost.Queue
			want := s.model.answer(sched[i].needle, sched[i].d)
			r.out.add(a.err == nil && !a.degraded && a.got == want,
				fmt.Sprintf("arrival %d at %g/s dist(%q) <= %d: got %v, want %v (err %v)",
					i, rate, sched[i].needle, sched[i].d, a.got, want, a.err))
		}
		pt.queueMS = float64(queue) / 1e3 / float64(len(res))
		out = append(out, pt)
		r.progress("ladder %.0f/s: %d arrivals in %.2fs", rate, len(sched), wall.Seconds())
	}
	return out, nil
}

// knee is the highest ladder rate that meets the limit, interpolated in log
// rate towards the first failing rate by where its p99 crosses the limit.
// It is 0 when even the lowest rate fails.
func knee(pts []point) float64 {
	k := 0.0
	for i, p := range pts {
		if !p.meets() {
			if i > 0 && p.keepsPace() {
				lo, hi := pts[i-1], p
				f := (kneeLimitMS - lo.p99()) / (hi.p99() - lo.p99())
				k = math.Exp(math.Log(lo.rate) + f*(math.Log(hi.rate)-math.Log(lo.rate)))
			}
			return k
		}
		k = p.rate
	}
	return k
}
