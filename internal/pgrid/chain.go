package pgrid

import (
	"errors"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// chainExec is the call-threaded execution engine: operators walk the trie
// with direct function calls, virtual time is pure arithmetic carried in a
// cursor, and logically parallel branches follow the fabric's Fanout
// contract (chained under the serial simulator, goroutine-parallel under the
// concurrent fabric). This is the paper's shared-memory execution model.
type chainExec struct {
	g *Grid
}

func (x *chainExec) fanout(start simnet.VTime, branches int, run func(i int, start simnet.VTime) simnet.VTime) simnet.VTime {
	return x.g.net.Fanout(start, branches, run)
}

// concurrent runs closed-loop client bodies serially: the chained engines
// model no cross-operation contention, so serial issue returns the same
// results, messages and (arithmetic) latencies as any interleaving would.
func (x *chainExec) concurrent(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

func (x *chainExec) attach(simnet.NodeID) {}

// awaitWriteDrain waits out in-flight write applies. Chained writes run to
// completion on their issuing goroutines, so a condition wait (which
// releases memberMu while parked) is all that is needed; endWrite signals.
func (x *chainExec) awaitWriteDrain() {
	for x.g.pendingWrites > 0 {
		x.g.writeDrained.Wait()
	}
}

// routeToward implements the routing loop of Algorithm 1: starting at from,
// repeatedly forward to a reference in the complementary subtrie at the
// divergence level until stop(peer) holds. target is a hashed-space key. Each
// hop sends one message built by mkMsg and advances the cursor by the
// modelled link latency. The common prefix with the target grows by at least
// one bit per hop, so the loop terminates within target.Len() hops on a
// complete trie.
func (x *chainExec) routeToward(v *view, t *metrics.Tally, from simnet.NodeID, target keys.Key,
	stop func(*Peer) bool, mkMsg func() simnet.Message, cur cursor) (simnet.NodeID, cursor, error) {

	g := x.g
	salt := routeSalt(target)
	at := from
	for hop := 0; hop <= target.Len()+1; hop++ {
		p, err := v.peer(at)
		if err != nil {
			return 0, cur, err
		}
		if stop(p) {
			return at, cur, nil
		}
		l := p.path.CommonPrefixLen(target)
		next, err := g.pickRef(v, p, l, salt)
		if err != nil {
			return 0, cur, err
		}
		reached, arrive, err := g.sendFailover(v, t, at, next, mkMsg, cur.at)
		if err != nil {
			return 0, cur, err
		}
		cur.at = arrive
		cur.hops++
		at = reached
	}
	return 0, cur, ErrRoutingExhausted
}

func (x *chainExec) lookup(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	g := x.g
	hk := g.h.hash(k)
	dest, cur, err := x.routeToward(v, t, from, hk,
		func(p *Peer) bool { return p.Responsible(hk) },
		func() simnet.Message { return lookupMsg{key: k} }, cursor{at: start})
	if err != nil {
		if err = g.degradeReadErr(t, err); err != nil {
			return nil, cur.at, err
		}
		return nil, cur.at, nil
	}
	p := v.peers.at(dest)
	res := p.appendLocalPrefix(nil, k)
	if len(res) > 0 || g.cfg.ReplyEmpty {
		arrive, err := g.sendRetrans(t, dest, from,
			func() simnet.Message { return resultMsg{postings: res} }, cur.at)
		if err != nil {
			return res, cur.finish(t), g.degradeReadErr(t, err)
		}
		cur.at = arrive
		cur.hops++
	}
	return res, cur.finish(t), nil
}

func (x *chainExec) multiLookup(v *view, t *metrics.Tally, from simnet.NodeID, ks []keys.Key, dst []triples.Posting, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	s := x.g.getScratch()
	defer x.g.putScratch(s)
	l, end, err := x.multiStep(v, t, from, from, s, s.hashKeys(x.g.h, ks), 0, cursor{at: start})
	return s.appendTo(dst, l), end, err
}

// branchOut is what one forwarded branch of a multicast node returns.
type branchOut struct {
	replies replyList
	err     error
}

// multiStep serves the keys of b this partition is responsible for and
// forwards the rest into every relevant sibling subtrie. The node serves
// all its keys into the operation's reply arena in s as one span, whose
// view is the resultMsg payload; once the reply got through, the span heads
// the node's reply list, followed by each branch's list in branch order, so
// the initiator copies the replies out depth-first. The sibling forwards
// are logically parallel: under the concurrent fabric they run on
// goroutines forked at this peer's arrival time, under the serial fabric
// they chain — the Fanout contract of simnet.Fabric. Branches partition
// disjoint ranges of the key buffer and append to the arena under its lock,
// which keeps the goroutines race-free.
func (x *chainExec) multiStep(v *view, t *metrics.Tally, initiator, at simnet.NodeID,
	s *opScratch, b multiBatch, scope int, cur cursor) (replyList, simnet.VTime, error) {

	g := x.g
	p, err := v.peer(at)
	if err != nil {
		return replyList{}, cur.at, err
	}
	var served bool
	sp, local := s.serve(func(dst []triples.Posting) []triples.Posting {
		dst, served = p.serveMulti(dst, b.keys)
		return dst
	})
	var list replyList
	end := cur.at
	var errs []error
	if len(local) > 0 || (g.cfg.ReplyEmpty && served) {
		reply := cur
		arrive, err := g.sendRetrans(t, at, initiator,
			func() simnet.Message { return resultMsg{postings: local} }, reply.at)
		if err != nil {
			errs = appendErr(errs, g.degradeReadErr(t, err))
		} else {
			list = s.record(list, sp)
			reply.at = arrive
			reply.hops++
			end = reply.finish(t)
		}
	} else if served {
		end = cur.finish(t)
	}

	// Partition the remaining keys over the sibling subtries and pick all
	// forwarding targets before forking; reference picking is deterministic,
	// so branch sets are identical under every execution engine.
	branches, pickErrs := splitMultiBranches(g, v, p, b, scope)
	for _, e := range pickErrs {
		errs = appendErr(errs, g.degradeReadErr(t, e))
	}
	if len(branches) == 0 {
		return list, end, errors.Join(errs...) // a leaf of the multicast tree
	}
	outs := make([]branchOut, len(branches))
	fanEnd := g.net.Fanout(cur.at, len(branches), func(i int, start simnet.VTime) simnet.VTime {
		br := branches[i]
		sub := b.sub(br.lo, br.hi)
		reached, arrive, err := g.sendFailover(v, t, at, br.next,
			func() simnet.Message { return multiLookupMsg{keys: sub.keys} }, start)
		if err != nil {
			outs[i].err = g.degradeReadErr(t, err)
			return start
		}
		l, bEnd, err := x.multiStep(v, t, initiator, reached, s, sub, br.level+1,
			cursor{at: arrive, hops: cur.hops + 1})
		outs[i] = branchOut{replies: l, err: err}
		return bEnd
	})
	if fanEnd > end {
		end = fanEnd
	}
	for _, o := range outs {
		list = s.join(list, o.replies)
		errs = appendErr(errs, o.err)
	}
	return list, end, errors.Join(errs...)
}

// appendErr appends err to errs unless it is nil; joining the collected
// errors then allocates nothing on the fault-free path.
func appendErr(errs []error, err error) []error {
	if err != nil {
		errs = append(errs, err)
	}
	return errs
}

// serveMulti appends the postings of the keys p is responsible for, in
// batch order, to dst — the node's reply span in the operation's arena;
// served reports whether there was any such key.
func (p *Peer) serveMulti(dst []triples.Posting, ks []hashedKey) (_ []triples.Posting, served bool) {
	for _, k := range ks {
		if p.Responsible(k.h) {
			served = true
			dst = p.appendLocalPrefix(dst, k.orig)
		}
	}
	return dst, served
}

// splitMultiBranches stable-partitions b.keys into b.scratch and picks one
// live forwarding target per nonempty sibling subtrie at levels >= scope.
// The partition puts the keys p is responsible for first, then each
// subtrie's subset as one contiguous range, in ascending level order; keys
// no subtrie at those levels covers are dropped at the end. Branch i covers
// b.scratch[branches[i].lo:branches[i].hi]. Both execution engines share it,
// so branch sets — and therefore routes and hop counts — are identical.
func splitMultiBranches(g *Grid, v *view, p *Peer, b multiBatch, scope int) ([]subtrieBranch, []error) {
	// A key p is not responsible for diverges from p's path at bit c, its
	// common prefix length with the path, so it lies in the sibling subtrie
	// at level c. Slot 0 counts local keys, slot 1+c-scope the subtrie at
	// level c, the last slot the dropped keys.
	depth := p.path.Len() - scope
	if depth < 0 {
		depth = 0
	}
	counts := make([]int, depth+2)
	slot := func(k hashedKey) int {
		if p.Responsible(k.h) {
			return 0
		}
		if c := p.path.CommonPrefixLen(k.h); c >= scope {
			return 1 + c - scope
		}
		return depth + 1
	}
	for _, k := range b.keys {
		counts[slot(k)]++
	}
	// counts become each slot's next write position.
	pos, nonempty := 0, 0
	for i, n := range counts {
		counts[i] = pos
		pos += n
		if i > 0 && i <= depth && n > 0 {
			nonempty++
		}
	}
	branches := make([]subtrieBranch, 0, nonempty)
	var pickErrs []error
	for l, i := scope, 1; i <= depth; l, i = l+1, i+1 {
		if lo, hi := counts[i], counts[i+1]; hi > lo {
			next, err := g.pickRef(v, p, l, routeSalt(p.path.Prefix(l+1).FlipLast()))
			if err != nil {
				pickErrs = append(pickErrs, err)
				continue
			}
			branches = append(branches, subtrieBranch{level: l, next: next, lo: lo, hi: hi})
		}
	}
	for _, k := range b.keys {
		s := slot(k)
		b.scratch[counts[s]] = k
		counts[s]++
	}
	return branches, pickErrs
}

func (x *chainExec) rangeQuery(v *view, t *metrics.Tally, from simnet.NodeID, iv, ivH keys.Interval, opts RangeOptions, start simnet.VTime) ([]triples.Posting, simnet.VTime, error) {
	dest, cur, err := x.routeToward(v, t, from, ivH.Lo,
		func(p *Peer) bool { return ivH.OverlapsPrefix(p.path) },
		func() simnet.Message { return rangeMsg{iv: iv, filterBytes: opts.FilterBytes} }, cursor{at: start})
	if err != nil {
		return nil, cur.at, err
	}
	s := x.g.getScratch()
	defer x.g.putScratch(s)
	l, end, err := x.showerStep(v, t, from, dest, s, iv, ivH, 0, opts, cur)
	return s.appendTo(nil, l), end, err
}

// showerStep serves the range locally and forwards it into every overlapping
// sibling subtrie at levels >= scope, which delivers the query to each
// overlapping partition exactly once. iv is the original-space interval
// evaluated against stored keys; ivH is its hashed-space image used for trie
// pruning. Like multiStep, the node serves into the operation's reply arena
// and returns its reply list depth-first. Sibling forwards fan out per the
// fabric's Fanout contract: concurrently under asyncnet, chained under the
// serial simulator.
func (x *chainExec) showerStep(v *view, t *metrics.Tally, initiator, at simnet.NodeID, s *opScratch,
	iv, ivH keys.Interval, scope int, opts RangeOptions, cur cursor) (replyList, simnet.VTime, error) {

	g := x.g
	p, err := v.peer(at)
	if err != nil {
		return replyList{}, cur.at, err
	}
	var list replyList
	end := cur.at
	var errs []error
	if ivH.OverlapsPrefix(p.path) {
		sp, res := s.serve(func(dst []triples.Posting) []triples.Posting {
			return p.appendLocalRange(dst, iv, opts.Filter)
		})
		if len(res) > 0 || g.cfg.ReplyEmpty {
			reply := cur
			arrive, err := g.sendRetrans(t, at, initiator,
				func() simnet.Message { return resultMsg{postings: res} }, reply.at)
			if err != nil {
				errs = appendErr(errs, g.degradeReadErr(t, err))
			} else {
				list = s.record(list, sp)
				reply.at = arrive
				reply.hops++
				end = reply.finish(t)
			}
		} else {
			// Silence means "no results", but the query still travelled
			// here: fold the forwarding path into the tally.
			end = cur.finish(t)
		}
	}

	branches, pickErrs := splitShowerBranches(g, v, p, ivH, scope)
	for _, e := range pickErrs {
		errs = appendErr(errs, g.degradeReadErr(t, e))
	}
	if len(branches) == 0 {
		return list, end, errors.Join(errs...)
	}
	outs := make([]branchOut, len(branches))
	fanEnd := g.net.Fanout(cur.at, len(branches), func(i int, start simnet.VTime) simnet.VTime {
		b := branches[i]
		reached, arrive, err := g.sendFailover(v, t, at, b.next,
			func() simnet.Message { return rangeMsg{iv: iv, filterBytes: opts.FilterBytes} }, start)
		if err != nil {
			outs[i].err = g.degradeReadErr(t, err)
			return start
		}
		l, bEnd, err := x.showerStep(v, t, initiator, reached, s, iv, ivH, b.level+1, opts,
			cursor{at: arrive, hops: cur.hops + 1})
		outs[i] = branchOut{replies: l, err: err}
		return bEnd
	})
	if fanEnd > end {
		end = fanEnd
	}
	for _, o := range outs {
		list = s.join(list, o.replies)
		errs = appendErr(errs, o.err)
	}
	return list, end, errors.Join(errs...)
}

// splitShowerBranches picks one live forwarding target for every overlapping
// sibling subtrie at levels >= scope. Shared by both execution engines.
func splitShowerBranches(g *Grid, v *view, p *Peer, ivH keys.Interval, scope int) ([]subtrieBranch, []error) {
	var branches []subtrieBranch
	var pickErrs []error
	for l := scope; l < p.path.Len(); l++ {
		sibling := p.path.Prefix(l + 1).FlipLast()
		if !ivH.OverlapsPrefix(sibling) {
			continue
		}
		next, err := g.pickRef(v, p, l, routeSalt(sibling))
		if err != nil {
			pickErrs = append(pickErrs, err)
			continue
		}
		branches = append(branches, subtrieBranch{level: l, next: next})
	}
	return branches, pickErrs
}

func (x *chainExec) insert(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, posting triples.Posting) error {
	g := x.g
	hk := g.h.hash(k)
	dest, cur, err := x.routeToward(v, t, from, hk,
		func(p *Peer) bool { return p.Responsible(hk) },
		func() simnet.Message { return insertMsg{key: k, posting: posting} }, opStart(t))
	if err != nil {
		return err
	}
	p := v.peers.at(dest)
	g.applyOwnerWrite(v, p, hk, func(q *Peer) bool { q.localPut(k, posting); return true })
	defer g.endWrite()
	end := cur.at
	var errs []error
	for _, r := range p.replicas {
		arrive, err := g.sendRetrans(t, dest, r,
			func() simnet.Message { return replicateMsg{key: k, posting: posting} }, cur.at)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if arrive > end {
			end = arrive
		}
		g.applyReplicaWrite(v, r, hk, func(q *Peer) bool { q.localPut(k, posting); return true })
	}
	t.ObservePath(cur.hops+boolInt64(len(p.replicas) > 0), int64(end))
	return errors.Join(errs...)
}

func (x *chainExec) remove(v *view, t *metrics.Tally, from simnet.NodeID, k keys.Key, match func(triples.Posting) bool) (bool, error) {
	g := x.g
	hk := g.h.hash(k)
	dest, cur, err := x.routeToward(v, t, from, hk,
		func(p *Peer) bool { return p.Responsible(hk) },
		func() simnet.Message { return deleteMsg{key: k} }, opStart(t))
	if err != nil {
		return false, err
	}
	p := v.peers.at(dest)
	deleted := g.applyOwnerWrite(v, p, hk, func(q *Peer) bool { return q.localDelete(k, match) })
	defer g.endWrite()
	end := cur.at
	var errs []error
	for _, r := range p.replicas {
		arrive, err := g.sendRetrans(t, dest, r,
			func() simnet.Message { return deleteMsg{key: k} }, cur.at)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if arrive > end {
			end = arrive
		}
		g.applyReplicaWrite(v, r, hk, func(q *Peer) bool { return q.localDelete(k, match) })
	}
	t.ObservePath(cur.hops+boolInt64(len(p.replicas) > 0), int64(end))
	return deleted, errors.Join(errs...)
}
