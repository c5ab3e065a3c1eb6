package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
)

// run holds one benchmark run's inputs and tallies.
type run struct {
	w       *workload
	seed    int64
	seconds float64
	in      inputs
	out     outcome
	setups  []float64 // seconds per core.Open
	started time.Time
	base    *model // the generated tuples, shared by write-free sessions
}

const (
	// setupRuns is how often a run opens its measured engine; setup_s is
	// the median.
	setupRuns = 3
	// warmQueries precede every measured closed loop, untimed.
	warmQueries = 30
	// minQueries gives query_wall_p99_ms ten samples beyond it; minWrites
	// and minChurn do the same for write_wall_p95_ms and churn_wall_p50_ms.
	minQueries = 1000
	minWrites  = 200
	minChurn   = 20
	// openLoopClosedQueries is the length of the open-loop workload's
	// closed loop, which measures its wall and allocation figures.
	openLoopClosedQueries = 30000
	// hardCap bounds a closed loop that is slow to collect those samples.
	hardCap = 90 * time.Second
)

// progress notes a finished step on standard error.
func (r *run) progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%8.2fs  %s\n", time.Since(r.started).Seconds(), fmt.Sprintf(format, args...))
}

func newRun(w *workload, seed int64, seconds float64) *run {
	return &run{w: w, seed: seed, seconds: seconds, in: w.inputs(seed), started: time.Now()}
}

// open builds a fresh engine over the generated tuples, timing core.Open.
func (r *run) open() (*core.Engine, error) {
	runtime.GC()
	t0 := time.Now()
	eng, err := core.Open(r.in.tuples, r.w.config())
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", r.w.name, err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.progress("opened engine in %.3fs", r.setups[len(r.setups)-1])
	return eng, nil
}

// warmEngine opens a fresh engine and warms it with n checked queries. Its
// session shares the run's model of the generated tuples, so it must issue
// no writes.
func (r *run) warmEngine(n int) (*core.Engine, *session, error) {
	eng, err := r.open()
	if err != nil {
		return nil, nil, err
	}
	if r.base == nil {
		r.base = newModel(r.in.tuples)
	}
	s := newSession(r.w, &r.in, eng, r.base, &r.out, r.seed)
	s.warm(n)
	return eng, s, nil
}

// enough reports whether a closed loop has the samples its percentiles need,
// and on the open-loop workload its fixed number of queries.
func (r *run) enough(ph *phase) bool {
	if len(ph.queryWall) < minQueries || r.w.openLoop && len(ph.queryWall) < openLoopClosedQueries {
		return false
	}
	if r.w.mix[opInsert]+r.w.mix[opDelete] > 0 && len(ph.writeWall) < minWrites {
		return false
	}
	return r.w.mix[opChurn] == 0 || len(ph.churnWall) >= minChurn
}

// closedLoop issues the workload's mix for budget, and on until the
// percentiles have their samples, recording allocations over the loop.
func (r *run) closedLoop(s *session, budget time.Duration) *phase {
	ph := newPhase()
	mix := &mixer{rng: rand.New(rand.NewSource(r.seed ^ 0x6b6b6b)), mix: r.w.mix}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for el := time.Duration(0); (el < budget || !r.enough(ph)) && el < hardCap; el = time.Since(t0) {
		s.do(mix.next(), ph)
	}
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.allocs = after.Mallocs - before.Mallocs
	r.progress("closed loop: %d ops in %.2fs", ph.ops, time.Since(t0).Seconds())
	s.verify()
	r.progress("verified")
	return ph
}

// report is what an untraced run measured.
type report struct {
	setups  []float64
	heapMiB float64
	loop    *phase  // the measured closed loop
	ladder  []point // open-loop workloads only
}

// measure performs an untraced run.
func (r *run) measure() (*report, error) {
	rep := &report{}
	budget := time.Duration(r.seconds * float64(time.Second))
	var eng *core.Engine
	for i := 0; i < setupRuns; i++ {
		eng = nil
		var err error
		if eng, err = r.open(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	rep.setups = append([]float64(nil), r.setups...)

	if r.w.openLoop {
		pts, err := r.ladder()
		if err != nil {
			return nil, err
		}
		rep.ladder = pts
		// The closed loop runs a fixed number of queries instead: the
		// caches warm as it goes, so a loop bounded by time would ask a fast
		// host more questions and report fewer messages per query.
		budget = 0
	}

	s := newSession(r.w, &r.in, eng, newModel(r.in.tuples), &r.out, r.seed)
	s.warm(warmQueries)
	if r.out.failed > 0 {
		return nil, fmt.Errorf("warm-up answers are wrong: %s", r.out.firstFailure)
	}
	r.progress("warmed")
	rep.loop = r.closedLoop(s, budget)
	return rep, nil
}
