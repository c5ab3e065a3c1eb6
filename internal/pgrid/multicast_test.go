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
	var n int
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
			t.Fatalf("multicast %d: %v", i, err)
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
	return fmt.Sprintf("n=%d sum=%016x msgs=%d bytes=%d hops=%d latency=%d",
		n, h.Sum64(), sum.Messages, sum.Bytes, sum.Hops, sum.Latency)
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
