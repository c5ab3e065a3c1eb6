//go:build !race

// sync.Pool drops items at random under the race detector, so the
// steady-state allocation guard only holds in a normal build.

package pgrid

import (
	"testing"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/triples"
)

// TestMultiLookupReplyAllocs guards the pooled reply arena: once warm, a
// batched multicast into a reused destination allocates the same number of
// objects for a 4-key batch as for a 48-key batch. Both batches reach every
// partition of a four-partition grid from the same initiator, so they take
// the same multicast tree and send the same messages; only the number of
// reply postings differs, and serving those must no longer allocate.
func TestMultiLookupReplyAllocs(t *testing.T) {
	const (
		nPeers = 4
		nItems = 400
	)
	g, _ := buildTestGrid(t, nPeers, nItems, DefaultConfig())
	v := g.snapshot()
	if n := v.leaves.len(); n != 4 {
		t.Fatalf("grid has %d partitions, want 4", n)
	}
	// Deal the stored keys out by partition: the small batch takes one key
	// from each, the large batch twelve.
	byLeaf := make([][]keys.Key, 4)
	for i := 0; i < nItems; i++ {
		li := v.leafForHashed(g.h.hash(testKey(i)))
		byLeaf[li] = append(byLeaf[li], testKey(i))
	}
	var small, large []keys.Key
	for li, ks := range byLeaf {
		if len(ks) < 12 {
			t.Fatalf("partition %d holds %d keys, want at least 12", li, len(ks))
		}
		small = append(small, ks[0])
		large = append(large, ks[:12]...)
	}

	var dst []triples.Posting
	allocs := func(ks []keys.Key) float64 {
		return testing.AllocsPerRun(100, func() {
			var tally metrics.Tally
			res, _, err := g.AppendMultiLookupAt(dst[:0], &tally, 0, ks, 0)
			if err != nil || len(res) != len(ks) {
				t.Fatalf("multicast of %d keys: %d postings, %v", len(ks), len(res), err)
			}
		})
	}
	// Warm the scratch pool and size dst for the larger batch.
	var tally metrics.Tally
	dst, _, err := g.AppendMultiLookupAt(nil, &tally, 0, large, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a4, a48 := allocs(small), allocs(large); a4 != a48 {
		t.Errorf("multicast allocates %.0f objects for 4 keys but %.0f for 48: reply postings scale with the batch", a4, a48)
	}
}
