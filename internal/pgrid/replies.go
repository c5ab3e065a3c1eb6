package pgrid

import (
	"slices"
	"sync"

	"repro/internal/keys"
	"repro/internal/triples"
)

// opScratch is the pooled scratch of one multicast operation: the batched
// lookup and the shower on both engines, and every read on the actor
// engine. It holds the operation's hashed key batch and the reply arena its
// answering peers serve into. Grid.getScratch takes one from the grid's pool
// when the operation starts; the chained engine returns it when multiLookup
// or rangeQuery returns, the actor engine in collect, after the operation's
// last message resolved. The initiator copies the replies out before that,
// so nothing of the scratch outlives its operation.
type opScratch struct {
	// keys is the key range and the equally long partition scratch of the
	// multicast's batch (see multiBatch); hbits backs the keys' hashed
	// images.
	keys  []hashedKey
	hbits []byte
	replies
}

// hashKeyBytes bounds the packed size of a hashed key: rank keys are at
// most 64 bits wide (see hasher.packRank).
const hashKeyBytes = 8

// maxPooledArena caps the reply arena a scratch may carry back into the
// pool; a larger one (a wide range scan) is left to the collector rather
// than pinned for later operations that will not need it.
const maxPooledArena = 1 << 16

// getScratch takes an operation scratch from the grid's pool.
func (g *Grid) getScratch() *opScratch {
	if s, ok := g.scratch.Get().(*opScratch); ok {
		return s
	}
	return new(opScratch)
}

// putScratch returns a finished operation's scratch to the pool, cleared so
// that no key or posting stays reachable through it.
func (g *Grid) putScratch(s *opScratch) {
	if cap(s.arena) > maxPooledArena {
		return
	}
	clear(s.keys)
	clear(s.arena)
	s.keys, s.hbits, s.arena, s.spans = s.keys[:0], s.hbits[:0], s.arena[:0], s.spans[:0]
	g.scratch.Put(s)
}

// hashKeys pairs each key with its hashed-space image. The batch owns a
// scratch range of the same length: every multicast node stable-partitions
// its keys from one range into the other (see splitMultiBranches), so the
// keys are copied once per operation, not once per trie level, into a
// buffer the pool reuses across operations.
func (s *opScratch) hashKeys(h *hasher, ks []keys.Key) multiBatch {
	n := len(ks)
	s.keys = slices.Grow(s.keys[:0], 2*n)[:2*n]
	s.hbits = slices.Grow(s.hbits[:0], hashKeyBytes*n)
	for i, k := range ks {
		var hk keys.Key
		hk, s.hbits = h.appendHash(s.hbits, k)
		s.keys[i] = hashedKey{orig: k, h: hk}
	}
	return multiBatch{keys: s.keys[:n:n], scratch: s.keys[n:]}
}

// replies collects the replies of one operation. An answering peer appends
// its postings to the shared arena, and its reply is the span it filled.
// Appends take mu, because branches run as parallel goroutines under the
// concurrent fabric. Spans are recorded once their result message got
// through and chain into replyLists that fix the merge order: depth-first
// on the chained engine, arrival order on the actor engine. The span of a
// reply lost in transit is never recorded, so its postings stay out of the
// result.
type replies struct {
	mu    sync.Mutex
	arena []triples.Posting
	spans []replySpan
}

// replySpan is one reply, arena[lo:hi]; next is the id of the span after it
// in its list (0 ends the list).
type replySpan struct {
	lo, hi, next int
}

// replyList is a chain of recorded spans by id: span id i is spans[i-1],
// and id 0 is no span, so the zero list is empty.
type replyList struct {
	head, tail int
}

// serve appends one peer's reply to the arena with fill and returns its
// span, together with a view of it: the payload of the peer's result
// message, read only for size accounting. Later appends never write a
// filled span, so the view stays valid while other branches grow the arena.
func (r *replies) serve(fill func([]triples.Posting) []triples.Posting) (replySpan, []triples.Posting) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := len(r.arena)
	r.arena = fill(r.arena)
	hi := len(r.arena)
	return replySpan{lo: lo, hi: hi}, r.arena[lo:hi:hi]
}

// record appends a delivered reply's span to list l.
func (r *replies) record(l replyList, sp replySpan) replyList {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, sp)
	id := len(r.spans)
	if l.head == 0 {
		return replyList{head: id, tail: id}
	}
	r.spans[l.tail-1].next = id
	return replyList{head: l.head, tail: id}
}

// join chains list b after list a.
func (r *replies) join(a, b replyList) replyList {
	if a.head == 0 {
		return b
	}
	if b.head == 0 {
		return a
	}
	r.mu.Lock()
	r.spans[a.tail-1].next = b.head
	r.mu.Unlock()
	return replyList{head: a.head, tail: b.tail}
}

// appendTo copies the postings of list l onto dst in list order, growing
// dst at most once, to the exact total.
func (r *replies) appendTo(dst []triples.Posting, l replyList) []triples.Posting {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for id := l.head; id != 0; id = r.spans[id-1].next {
		n += r.spans[id-1].hi - r.spans[id-1].lo
	}
	if n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	for id := l.head; id != 0; id = r.spans[id-1].next {
		sp := r.spans[id-1]
		dst = append(dst, r.arena[sp.lo:sp.hi]...)
	}
	return dst
}
