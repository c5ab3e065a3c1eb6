package main

import "fmt"

// endToEnd turns an untraced run into the end-to-end metrics. gated are the
// metrics BENCHMARK.json bounds; every workload reports them in the result
// line. They are counts, virtual times, the heap and the set-up time. printed
// are the wall-time metrics the workload has: query throughput and
// percentiles, and the write and membership timings. The run prints them
// with their sample counts but keeps them out of the result line, because on
// a small shared host their run-to-run spread exceeded the widest bound a
// regression check can use (README.md gives the figures). The wall,
// allocation and cost figures come from the measured closed loop; on the
// open-loop workload vlat_* are the response times at the reference ladder
// rate, and knee_qps is printed beside them.
func endToEnd(rep *report) (gated, printed []metric) {
	loop := rep.loop
	q := loop.queryWall
	ops := float64(loop.ops)
	vlat := loop.queryVlat
	if len(rep.ladder) > 0 {
		printLadder(rep.ladder)
		for _, p := range rep.ladder {
			if p.rate == ladderRef {
				vlat = p.sojourns
			}
		}
	}
	gated = []metric{
		{name: "setup_s", unit: "s", value: median(rep.setups), n: len(rep.setups)},
		{name: "alloc_kib_per_op", unit: "KiB", value: float64(loop.allocBytes) / 1024 / ops, n: loop.ops},
		{name: "allocs_per_op", unit: "count", value: float64(loop.allocs) / ops, n: loop.ops},
		{name: "msgs_per_op", unit: "count", value: float64(loop.msgs) / ops, n: loop.ops},
		{name: "wire_kib_per_op", unit: "KiB", value: float64(loop.bytes) / 1024 / ops, n: loop.ops},
		{name: "vlat_p50_ms", unit: "ms", value: quantile(vlat, 0.5), n: len(vlat)},
		{name: "vlat_p99_ms", unit: "ms", value: quantile(vlat, 0.99), n: len(vlat)},
		{name: "live_heap_mib", unit: "MiB", value: rep.heapMiB, n: 1},
	}
	printed = []metric{
		{name: "query_qps", unit: "1/s", value: chunkMedian(q, 100, qps), n: len(q)},
		{name: "query_wall_p50_ms", unit: "ms", value: chunkMedian(q, 100, p50), n: len(q)},
		{name: "query_wall_p99_ms", unit: "ms", value: chunkMedian(q, 1000, p99), n: len(q)},
	}
	if ww := loop.writeWall; len(ww) > 0 {
		printed = append(printed,
			metric{name: "write_wall_p50_ms", unit: "ms", value: chunkMedian(ww, 20, p50), n: len(ww)},
			metric{name: "write_wall_p95_ms", unit: "ms", value: chunkMedian(ww, 200, p95), n: len(ww)})
	}
	if cw := loop.churnWall; len(cw) > 0 {
		printed = append(printed, metric{name: "churn_wall_p50_ms", unit: "ms", value: chunkMedian(cw, 20, p50), n: len(cw)})
	}
	for _, c := range []struct {
		name string
		n    int
		q    float64
	}{{"query_wall_p99_ms", len(q), 0.99}, {"vlat_p99_ms", len(vlat), 0.99},
		{"write_wall_p95_ms", len(loop.writeWall), 0.95}, {"churn_wall_p50_ms", len(loop.churnWall), 0.5}} {
		if c.n > 0 && !supports(c.n, c.q) {
			fmt.Printf("warning: %s has fewer than ten samples beyond it (n=%d)\n", c.name, c.n)
		}
	}
	return gated, printed
}

// chunkMedian splits samples, in the order they were taken, into up to
// eight consecutive chunks of at least min samples each and returns the
// median of stat over the chunks, or stat of all samples when that gives
// fewer than three chunks. A burst of other work on the host then moves a
// few chunks, not the reported value. min keeps ten samples beyond the
// percentile stat computes.
func chunkMedian(xs []float64, min int, stat func([]float64) float64) float64 {
	k := len(xs) / min
	if k > 8 {
		k = 8
	}
	if k < 3 {
		return stat(xs)
	}
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = stat(xs[i*len(xs)/k : (i+1)*len(xs)/k])
	}
	return median(vals)
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p95(xs []float64) float64 { return quantile(xs, 0.95) }
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// qps is queries per second of wall time spent in the calls.
func qps(ms []float64) float64 {
	sum := 0.0
	for _, x := range ms {
		sum += x
	}
	return float64(len(ms)) / (sum / 1e3)
}

// printLadder prints the open-loop table and knee_qps.
func printLadder(pts []point) {
	fmt.Printf("%-10s %-9s %-9s %-8s %-12s %-12s %-14s %-12s %s\n",
		"rate/s", "arrivals", "messaged", "span_s", "vlat_p50_ms", "vlat_p99_ms", "early/late_ms", "queue_ms/q", "wall_s")
	for _, p := range pts {
		fmt.Printf("%-10.0f %-9d %-9d %-8.2f %-12.2f %-12.2f %-14s %-12.3f %.3f\n",
			p.rate, p.arrivals, len(p.sojourns), p.span, quantile(p.sojourns, 0.5), p.p99(),
			fmt.Sprintf("%.0f/%.0f", p.early, p.late), p.queueMS, p.wall.Seconds())
	}
	rule := fmt.Sprintf("highest rate with vlat p99 <= %.0f ms and no growing backlog", kneeLimitMS)
	switch k := knee(pts); {
	case pts[len(pts)-1].meets():
		fmt.Printf("knee_qps >%.0f 1/s (every ladder rate meets the limit; %s)\n", pts[len(pts)-1].rate, rule)
	case k == 0:
		fmt.Printf("knee_qps <%.0f 1/s (the lowest ladder rate fails the limit; %s)\n", pts[0].rate, rule)
	default:
		fmt.Printf("knee_qps %.1f 1/s (%s, interpolated in log rate)\n", k, rule)
	}
}
