package pgrid

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/asyncnet"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// TestMultiLookupOrderAndCostGolden pins the exact ordered posting stream
// and the wire cost of a seeded batch of multicasts on every executor. The
// cross-executor oracle compares result multisets only; this golden also
// catches a change to the order in which replies are merged (depth-first on
// the chained engines, reply-arrival order on the actor engine) and any
// drift in messages, bytes, hops or simulated latency.
func TestMultiLookupOrderAndCostGolden(t *testing.T) {
	const (
		nPeers = 48
		nItems = 600
	)
	for _, replyEmpty := range []bool{false, true} {
		grids := execGrids(t, nPeers, nItems, func(c *Config) { c.ReplyEmpty = replyEmpty },
			asyncnet.DefaultLatency(7))
		for _, mode := range []string{"direct", "fanout", "actor"} {
			name := fmt.Sprintf("%s/replyEmpty=%v", mode, replyEmpty)
			if got := multicastFingerprint(t, grids[mode], nPeers, nItems); got != multicastGolden[name] {
				t.Errorf("%s: multicast stream diverged from golden:\ngot:  %s\nwant: %s",
					name, got, multicastGolden[name])
			}
		}
	}
}

// multicastFingerprint runs a fixed batch of multicasts — full keys,
// duplicates, unknown keys and short prefix keys that match several stored
// keys — and renders an FNV-64a checksum of the ordered posting stream
// alongside the summed tally.
func multicastFingerprint(t *testing.T, g *Grid, nPeers, nItems int) string {
	t.Helper()
	h := fnv.New64a()
	var sum metrics.Tally
	var n, errs int
	var buf []byte
	for i := 0; i < 24; i++ {
		var ks []keys.Key
		for j := 0; j < 1+(i*7)%40; j++ {
			ks = append(ks, testKey((i*131+j*37)%nItems))
		}
		switch i % 4 {
		case 1:
			ks = append(ks, ks[0], keys.StringKey("absent"))
		case 2:
			ks = append(ks, keys.StringKey(fmt.Sprintf("k000%d", 10+i)))
		}
		var tally metrics.Tally
		res, err := g.MultiLookup(&tally, simnet.NodeID((i*11)%nPeers), ks)
		if err != nil {
			errs++
			h.Write([]byte(err.Error()))
		}
		for _, p := range res {
			buf = triples.AppendPosting(buf[:0], p)
			h.Write(buf)
		}
		h.Write([]byte{0xff}) // operation boundary
		n += len(res)
		s := tally.Snapshot()
		sum.Messages += s.Messages
		sum.Bytes += s.Bytes
		sum.Hops += s.Hops
		sum.Latency += s.Latency
	}
	return fingerprintLine(n, errs, h.Sum64(), &sum)
}

// multicastGolden was captured from the per-level copying multicast, before
// keys were partitioned in place and replies merged once per operation.
var multicastGolden = map[string]string{
	"direct/replyEmpty=false": `n=536 sum=7135c75f5252e656 msgs=712 bytes=25155 hops=116 latency=32386066`,
	"fanout/replyEmpty=false": `n=536 sum=7135c75f5252e656 msgs=712 bytes=25155 hops=116 latency=7118654`,
	"actor/replyEmpty=false":  `n=536 sum=04b198b69edb29ca msgs=712 bytes=25155 hops=116 latency=7118654`,
	"direct/replyEmpty=true":  `n=536 sum=7135c75f5252e656 msgs=713 bytes=25163 hops=116 latency=32404407`,
	"fanout/replyEmpty=true":  `n=536 sum=7135c75f5252e656 msgs=713 bytes=25163 hops=116 latency=7118654`,
	"actor/replyEmpty=true":   `n=536 sum=04b198b69edb29ca msgs=713 bytes=25163 hops=116 latency=7118654`,
}

// BenchmarkMultiLookup is the multicast split+merge layer row: one batched
// multicast of 48 full-length keys per iteration over a fixed 1024-peer
// grid, on each executor. B/op and allocs/op measure the key partitioning
// and reply merging the multicast does per operation; msgs/op must stay
// constant across implementations of the same protocol.
func BenchmarkMultiLookup(b *testing.B) {
	const (
		nPeers = 1024
		nItems = 20000
		batch  = 48
	)
	grids := execGrids(b, nPeers, nItems, nil, asyncnet.DefaultLatency(1))
	for _, mode := range []string{"direct", "fanout", "actor"} {
		b.Run(mode, func(b *testing.B) {
			g := grids[mode]
			ks := make([]keys.Key, batch)
			var msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range ks {
					ks[j] = testKey((i*7919 + j*104729) % nItems)
				}
				var tally metrics.Tally
				res, err := g.MultiLookup(&tally, simnet.NodeID(i%nPeers), ks)
				if err != nil || len(res) != batch {
					b.Fatalf("multicast %d: %d results, %v", i, len(res), err)
				}
				msgs += tally.Snapshot().Messages
			}
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

// TestMultiLookupOrderAndCostGoldenLossy is the lossy variant of the order
// golden: a seeded drop rate with the retry policy on (two attempts per wire
// message, so some replies are lost for good) on every executor. It pins
// which postings a dropped reply takes with it, the retransmission and
// degradation counters, and the cost of both multicast kinds under loss.
func TestMultiLookupOrderAndCostGoldenLossy(t *testing.T) {
	const (
		nPeers = 48
		nItems = 600
	)
	grids := execGrids(t, nPeers, nItems, func(c *Config) {
		c.Retry = RetryConfig{Enabled: true, MaxAttempts: 2}
	}, asyncnet.DefaultLatency(7))
	for _, mode := range []string{"direct", "fanout", "actor"} {
		g := grids[mode]
		g.net.(interface{ SetFaults(*simnet.FaultPlan) }).SetFaults(&simnet.FaultPlan{DropRate: 0.3, Seed: 11})
		multi := multicastFingerprint(t, g, nPeers, nItems)
		shower := showerFingerprint(t, g, nPeers, nItems)
		s := g.RobustStats()
		if s.Unanswered == 0 {
			t.Fatalf("%s: no reply was lost for good; the golden pins nothing about drops", mode)
		}
		got := fmt.Sprintf("multi: %s | shower: %s | retries=%d unanswered=%d",
			multi, shower, s.Retries, s.Unanswered)
		if want := lossyMulticastGolden[mode]; got != want {
			t.Errorf("%s: lossy multicast stream diverged from golden:\ngot:  %s\nwant: %s", mode, got, want)
		}
	}
}

// TestShowerOrderAndCostGolden pins the ordered posting stream and the wire
// cost of a seeded batch of prefix and range queries (the shower multicast)
// on every executor, with and without empty replies.
func TestShowerOrderAndCostGolden(t *testing.T) {
	const (
		nPeers = 48
		nItems = 600
	)
	for _, replyEmpty := range []bool{false, true} {
		grids := execGrids(t, nPeers, nItems, func(c *Config) { c.ReplyEmpty = replyEmpty },
			asyncnet.DefaultLatency(7))
		for _, mode := range []string{"direct", "fanout", "actor"} {
			name := fmt.Sprintf("%s/replyEmpty=%v", mode, replyEmpty)
			if got := showerFingerprint(t, grids[mode], nPeers, nItems); got != showerGolden[name] {
				t.Errorf("%s: shower stream diverged from golden:\ngot:  %s\nwant: %s",
					name, got, showerGolden[name])
			}
		}
	}
}

// showerFingerprint runs a fixed batch of prefix queries (narrow, wide and
// empty) and range queries, some with a peer-side filter, and renders an
// FNV-64a checksum of the ordered posting stream alongside the summed tally.
func showerFingerprint(t *testing.T, g *Grid, nPeers, nItems int) string {
	t.Helper()
	h := fnv.New64a()
	var sum metrics.Tally
	var n, errs int
	var buf []byte
	odd := RangeOptions{
		Filter:      func(p triples.Posting) bool { return int(p.Triple.Val.Num)%2 == 1 },
		FilterBytes: 4,
	}
	for i := 0; i < 24; i++ {
		var tally metrics.Tally
		from := simnet.NodeID((i*13 + 5) % nPeers)
		var res []triples.Posting
		var err error
		switch i % 4 {
		case 0: // prefix spanning ten keys
			res, err = g.PrefixQuery(&tally, from, keys.StringKey(fmt.Sprintf("k%05d", (i*17)%(nItems/10))), RangeOptions{})
		case 1: // prefix spanning a hundred keys, filtered at the peers
			res, err = g.PrefixQuery(&tally, from, keys.StringKey(fmt.Sprintf("k%04d", i%(nItems/100))), odd)
		case 2: // range over a stretch of keys
			lo := (i * 29) % nItems
			res, err = g.RangeQuery(&tally, from, keys.Interval{Lo: testKey(lo), Hi: testKey(lo + 1 + (i*11)%90)}, RangeOptions{})
		case 3: // a prefix no stored key extends
			res, err = g.PrefixQuery(&tally, from, keys.StringKey(fmt.Sprintf("z%d", i)), RangeOptions{})
		}
		if err != nil {
			errs++
			h.Write([]byte(err.Error()))
		}
		for _, p := range res {
			buf = triples.AppendPosting(buf[:0], p)
			h.Write(buf)
		}
		h.Write([]byte{0xff}) // operation boundary
		n += len(res)
		s := tally.Snapshot()
		sum.Messages += s.Messages
		sum.Bytes += s.Bytes
		sum.Hops += s.Hops
		sum.Latency += s.Latency
	}
	return fingerprintLine(n, errs, h.Sum64(), &sum)
}

// fingerprintLine renders a fingerprint; failed operations (expected only
// on a lossy fabric) are counted, and their errors are part of the checksum.
func fingerprintLine(n, errs int, sum uint64, tally *metrics.Tally) string {
	out := fmt.Sprintf("n=%d sum=%016x msgs=%d bytes=%d hops=%d latency=%d",
		n, sum, tally.Messages, tally.Bytes, tally.Hops, tally.Latency)
	if errs > 0 {
		out += fmt.Sprintf(" errs=%d", errs)
	}
	return out
}

// lossyMulticastGolden and showerGolden were captured from the engines that
// returned one reply slice per answering peer, before replies were served
// into a per-operation arena.
var lossyMulticastGolden = map[string]string{
	"direct": `multi: n=412 sum=8867b9c018292e8e msgs=831 bytes=29637 hops=108 latency=25782734 | shower: n=427 sum=5caea19ce0819a52 msgs=137 bytes=13618 hops=57 latency=4255441 errs=2 | retries=231 unanswered=68`,
	"fanout": `multi: n=412 sum=8867b9c018292e8e msgs=831 bytes=29637 hops=108 latency=6529369 | shower: n=427 sum=5caea19ce0819a52 msgs=137 bytes=13618 hops=57 latency=3131302 errs=2 | retries=231 unanswered=68`,
	"actor":  `multi: n=412 sum=febdcdb896300d86 msgs=831 bytes=29637 hops=108 latency=6529369 | shower: n=427 sum=d5ef16aa9c17399a msgs=137 bytes=13618 hops=57 latency=3131302 | retries=231 unanswered=70`,
}

var showerGolden = map[string]string{
	"direct/replyEmpty=false": `n=624 sum=b78bbb2fdb660272 msgs=112 bytes=13068 hops=70 latency=5297447`,
	"fanout/replyEmpty=false": `n=624 sum=b78bbb2fdb660272 msgs=112 bytes=13068 hops=70 latency=3738974`,
	"actor/replyEmpty=false":  `n=624 sum=5b613f1b9cedb49a msgs=112 bytes=13068 hops=70 latency=3738974`,
	"direct/replyEmpty=true":  `n=624 sum=b78bbb2fdb660272 msgs=118 bytes=13116 hops=76 latency=5559226`,
	"fanout/replyEmpty=true":  `n=624 sum=b78bbb2fdb660272 msgs=118 bytes=13116 hops=76 latency=4000753`,
	"actor/replyEmpty=true":   `n=624 sum=5b613f1b9cedb49a msgs=118 bytes=13116 hops=76 latency=4000753`,
}
