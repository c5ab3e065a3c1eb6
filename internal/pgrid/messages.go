package pgrid

import (
	"repro/internal/keys"
	"repro/internal/triples"
)

// msgOverhead approximates per-message framing (addressing, type tag, ids) in
// the data-volume accounting. The paper reports relative data volumes; a
// small constant keeps tiny control messages from being free.
const msgOverhead = 8

func keyBytes(k keys.Key) int { return (k.Len() + 7) / 8 }

// lookupMsg forwards an exact/prefix lookup toward the responsible partition
// (Algorithm 1's Retrieve delegation).
type lookupMsg struct {
	key keys.Key
}

func (m lookupMsg) Size() int    { return msgOverhead + keyBytes(m.key) }
func (m lookupMsg) Kind() string { return "pgrid.lookup" }

// multiLookupMsg forwards a batch of keys down one subtrie; the batched
// routing "similar to the shower algorithm in [6]" that Section 4 names as an
// implemented optimization. Only the original keys travel; keys is a range
// of the operation's partition buffer, valid while the send is accounted.
type multiLookupMsg struct {
	keys []hashedKey
}

func (m multiLookupMsg) Size() int {
	n := msgOverhead
	for _, k := range m.keys {
		n += 1 + keyBytes(k.orig)
	}
	return n
}
func (m multiLookupMsg) Kind() string { return "pgrid.multilookup" }

// rangeMsg forwards a range query (the shower algorithm of reference [6]).
// filterBytes accounts for a predicate specification carried with the query,
// e.g. the needle string and distance of the naive similarity scan.
type rangeMsg struct {
	iv          keys.Interval
	filterBytes int
}

func (m rangeMsg) Size() int {
	return msgOverhead + keyBytes(m.iv.Lo) + keyBytes(m.iv.Hi) + m.filterBytes
}
func (m rangeMsg) Kind() string { return "pgrid.range" }

// resultMsg returns matching postings from a contacted peer directly to the
// query initiator.
type resultMsg struct {
	postings []triples.Posting
}

func (m resultMsg) Size() int {
	n := msgOverhead
	for _, p := range m.postings {
		n += p.EncodedSize()
	}
	return n
}
func (m resultMsg) Kind() string { return "pgrid.result" }

// insertMsg routes a posting to its responsible partition.
type insertMsg struct {
	key     keys.Key
	posting triples.Posting
}

func (m insertMsg) Size() int {
	return msgOverhead + keyBytes(m.key) + m.posting.EncodedSize()
}
func (m insertMsg) Kind() string { return "pgrid.insert" }

// replicateMsg pushes a stored posting to a partition replica.
type replicateMsg struct {
	key     keys.Key
	posting triples.Posting
}

func (m replicateMsg) Size() int {
	return msgOverhead + keyBytes(m.key) + m.posting.EncodedSize()
}
func (m replicateMsg) Kind() string { return "pgrid.replicate" }

// deleteMsg routes a deletion to the responsible partition.
type deleteMsg struct {
	key keys.Key
}

func (m deleteMsg) Size() int    { return msgOverhead + keyBytes(m.key) }
func (m deleteMsg) Kind() string { return "pgrid.delete" }
