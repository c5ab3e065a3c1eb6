package main

import (
	"fmt"

	"repro/internal/ops"
)

// spanAgg sums the spans of one name: how many, their self time (duration
// minus the part covered by child spans) and their counts.
type spanAgg struct {
	n      int
	selfNS int64
	durs   []float64 // seconds
	counts map[string]int64
}

func aggregate(tr *tracer) map[string]*spanAgg {
	childNS := make([]int64, len(tr.spans))
	for _, sp := range tr.spans {
		if sp.Parent >= 0 {
			childNS[sp.Parent] += sp.End - sp.Start
		}
	}
	out := make(map[string]*spanAgg)
	for i, sp := range tr.spans {
		a := out[sp.Name]
		if a == nil {
			a = &spanAgg{counts: make(map[string]int64)}
			out[sp.Name] = a
		}
		a.n++
		a.selfNS += sp.End - sp.Start - childNS[i]
		a.durs = append(a.durs, float64(sp.End-sp.Start)/1e9)
		for k, v := range sp.Counts {
			a.counts[k] += v
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics from the spans. Per-call
// figures are means over the layer's calls; the partition-scan figures are
// per query, since one query scans once per probe key.
func layerMetrics(tr *tracer, cache ops.CacheStats, untraced *phase, queue metric, hot float64) []metric {
	agg := aggregate(tr)
	get := func(name string) *spanAgg {
		if a := agg[name]; a != nil {
			return a
		}
		return &spanAgg{counts: map[string]int64{}}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	meanUS := func(name string) metric {
		a := get(name)
		return metric{value: ratio(float64(a.selfNS)/1e3, float64(a.n)), unit: "us", n: a.n}
	}
	meanCount := func(name, count, unit string, scale float64) metric {
		a := get(name)
		return metric{value: ratio(float64(a.counts[count])*scale, float64(a.n)), unit: unit, n: a.n}
	}
	medianS := func(name string) metric {
		a := get(name)
		if a.n == 0 {
			return metric{unit: "s"}
		}
		return metric{value: median(a.durs), unit: "s", n: a.n}
	}
	queries := get("op.query").n
	perQuery := func(m metric, total float64) metric {
		m.value, m.n = ratio(total, float64(queries)), queries
		return m
	}
	scan := get("btree.prefix_scan")
	acc, ver := get("keyscheme.accept"), get("strdist.verify")
	core := get("core.query")
	coreUS := ratio(float64(core.selfNS)/1e3, float64(core.n))
	untracedMS := 0.0
	for _, x := range untraced.queryWall {
		untracedMS += x
	}
	untracedQPS := ratio(float64(len(untraced.queryWall)), untracedMS/1e3)
	tracedQPS := ratio(1e6, coreUS)

	rows := []struct {
		module, name string
		m            metric
	}{
		{"ops", "ops.plan_load_s", medianS("ops.plan_load")},
		{"pgrid", "pgrid.build_s", medianS("pgrid.build")},
		{"ops", "ops.apply_load_s", medianS("ops.apply_load")},
		{"vql", "vql.parse_us", meanUS("vql.parse")},
		{"plan", "plan.build_us", meanUS("plan.build")},
		{"keyscheme", "keyscheme.probe_us", meanUS("keyscheme.probe")},
		{"keyscheme", "keyscheme.probe_keys", meanCount("keyscheme.probe", "keys", "count", 1)},
		{"keyscheme", "keyscheme.accept_ratio", metric{unit: "ratio", n: acc.n,
			value: ratio(float64(acc.counts["accepted"]), float64(acc.counts["postings"]))}},
		{"pgrid", "pgrid.multicast_us", meanUS("pgrid.multicast")},
		{"pgrid", "pgrid.multicast_alloc_kib", meanCount("pgrid.multicast", "alloc_bytes", "KiB", 1.0/1024)},
		{"pgrid", "pgrid.multicast_msgs", meanCount("pgrid.multicast", "msgs", "count", 1)},
		{"pgrid", "pgrid.multicast_hops", meanCount("pgrid.multicast", "hops", "count", 1)},
		{"pgrid", "pgrid.multicast_postings", meanCount("pgrid.multicast", "postings", "count", 1)},
		{"btree", "btree.prefix_scan_us", perQuery(metric{unit: "us"}, float64(scan.selfNS)/1e3)},
		{"btree", "btree.scan_postings", perQuery(metric{unit: "count"}, float64(scan.counts["postings"]))},
		{"strdist", "strdist.verify_us", meanUS("strdist.verify")},
		{"strdist", "strdist.candidates", meanCount("strdist.verify", "candidates", "count", 1)},
		{"strdist", "strdist.match_ratio", metric{unit: "ratio", n: ver.n,
			value: ratio(float64(ver.counts["matches"]), float64(ver.counts["candidates"]))}},
		{"ops", "ops.reconstruct_us", meanUS("ops.reconstruct")},
		{"ops", "ops.reconstruct_msgs", meanCount("ops.reconstruct", "msgs", "count", 1)},
		{"qcache", "qcache.posting_hit_ratio", metric{unit: "ratio", value: cache.Postings.HitRatio(),
			n: int(cache.Postings.Hits + cache.Postings.Misses)}},
		{"qcache", "qcache.result_hit_ratio", metric{unit: "ratio", value: cache.Results.HitRatio(),
			n: int(cache.Results.Hits + cache.Results.Misses)}},
		{"qcache", "qcache.evictions", perQuery(metric{unit: "count"},
			float64(cache.Postings.Evictions+cache.Results.Evictions))},
		{"qcache", "qcache.invalidations", perQuery(metric{unit: "count"},
			float64(cache.Postings.Invalidations+cache.Results.Invalidations))},
		{"asyncnet", "asyncnet.queue_wait_ms", queue},
		{"asyncnet", "asyncnet.hottest_busy_share", metric{unit: "ratio", value: hot, n: 1}},
		{"pgrid", "pgrid.join_us", meanUS("pgrid.join")},
		{"pgrid", "pgrid.leave_us", meanUS("pgrid.leave")},
		{"pgrid", "pgrid.join_wire_kib", meanCount("pgrid.join", "wire_bytes", "KiB", 1.0/1024)},
		{"ops", "ops.insert_us", meanUS("ops.insert")},
		{"ops", "ops.delete_us", meanUS("ops.delete")},
		{"trace", "trace.untraced_qps", metric{unit: "1/s", value: untracedQPS, n: len(untraced.queryWall)}},
		{"trace", "trace.traced_qps", metric{unit: "1/s", value: tracedQPS, n: core.n}},
		{"trace", "trace.overhead_ratio", metric{unit: "ratio", value: ratio(untracedQPS, tracedQPS), n: core.n}},
	}
	out := make([]metric, 0, len(rows))
	for _, r := range rows {
		r.m.module, r.m.name = r.module, r.name
		out = append(out, r.m)
	}
	// Each replayed layer's time as a share of the whole replay, which takes
	// the uncached Algorithm 2 path (the engine's own call may have been a
	// cache hit): a layer with a share near zero is not worth optimising.
	// The partition scans run inside the multicast, so they are a share of it.
	steps := []string{"vql.parse", "plan.build", "keyscheme.probe", "pgrid.multicast",
		"keyscheme.accept", "pgrid.short_scan", "ops.reconstruct", "strdist.verify"}
	var replayNS int64
	for _, name := range steps {
		replayNS += get(name).selfNS
	}
	for _, name := range steps {
		fmt.Printf("share %-18s %6.2f%% of the replayed query\n", name, 100*ratio(float64(get(name).selfNS), float64(replayNS)))
	}
	fmt.Printf("share %-18s %6.2f%% of pgrid.multicast\n", "btree.prefix_scan",
		100*ratio(float64(scan.selfNS), float64(get("pgrid.multicast").selfNS)))
	fmt.Printf("replayed query %.1f us, core.query %.1f us\n", ratio(float64(replayNS)/1e3, float64(queries)), coreUS)
	return out
}
