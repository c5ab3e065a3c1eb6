package pgrid

import (
	"sync"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/triples"
)

// Asynchronous operation issue: post N kickoffs, drain once.
//
// On the actor engine, Issue* injects an operation as a kickoff event at a
// chosen virtual time and returns immediately with a Pending handle; many
// operations can be issued back to back before anything executes. One drain
// (DrainIssued, or the pump inside the first Wait) then steps the shared
// event heap in global virtual-time order, so the operations' messages
// interleave and queue behind each other in peer mailboxes — the
// cross-operation contention the per-episode model could not express. Each
// operation's tally derives from its own kickoff and completion events, so
// per-operation latency and queueing stay exact under concurrent issue.
//
// Issue and Wait/Drain are intended for a single issuing goroutine (the
// post-N-then-drain pattern); bodies running under Grid.Concurrent may also
// use them, in which case pending operations resolve under that drain loop.
//
// The chained engines have no shared timeline to contend on: there Issue*
// executes the operation immediately and Pending just carries the outcome,
// so oracle code can run the same issue schedule on every engine.

// Pending is one asynchronously issued grid operation.
type Pending struct {
	op *actorOp
	x  *actorExec

	once sync.Once
	res  []triples.Posting
	end  simnet.VTime
	err  error
}

// settled builds a Pending that already carries its outcome (chained
// engines, or issue-time failures).
func settled(res []triples.Posting, end simnet.VTime, err error) *Pending {
	p := &Pending{res: res, end: end, err: err}
	p.once.Do(func() {})
	return p
}

// Wait returns the operation's results, completion time (on the operation's
// own timeline) and error, stepping the shared heap as needed if no drain
// loop resolved the operation yet.
func (p *Pending) Wait() ([]triples.Posting, simnet.VTime, error) {
	p.once.Do(func() {
		p.res, p.end, p.err = p.x.run(p.op)
	})
	return p.res, p.end, p.err
}

// IssueLookupAt issues Lookup asynchronously from an explicit virtual start
// time.
func (g *Grid) IssueLookupAt(t *metrics.Tally, from simnet.NodeID, k keys.Key, start simnet.VTime) *Pending {
	x, ok := g.exec.(*actorExec)
	if !ok {
		return settled(g.exec.lookup(g.snapshot(), t, from, k, start))
	}
	return &Pending{x: x, op: x.issueLookup(g.snapshot(), t, from, k, start)}
}

// IssueMultiLookupAt issues MultiLookup asynchronously from an explicit
// virtual start time.
func (g *Grid) IssueMultiLookupAt(t *metrics.Tally, from simnet.NodeID, ks []keys.Key, start simnet.VTime) *Pending {
	if len(ks) == 0 {
		return settled(nil, start, nil)
	}
	x, ok := g.exec.(*actorExec)
	if !ok {
		return settled(g.exec.multiLookup(g.snapshot(), t, from, ks, nil, start))
	}
	return &Pending{x: x, op: x.issueMultiLookup(g.snapshot(), t, from, ks, nil, start)}
}

// IssueRangeQueryAt issues RangeQuery asynchronously from an explicit
// virtual start time.
func (g *Grid) IssueRangeQueryAt(t *metrics.Tally, from simnet.NodeID, iv keys.Interval, opts RangeOptions, start simnet.VTime) *Pending {
	ivH, err := g.hashInterval(iv)
	if err != nil {
		return settled(nil, start, err)
	}
	x, ok := g.exec.(*actorExec)
	if !ok {
		return settled(g.exec.rangeQuery(g.snapshot(), t, from, iv, ivH, opts, start))
	}
	return &Pending{x: x, op: x.issueRange(g.snapshot(), t, from, iv, ivH, opts, start)}
}

// DrainIssued steps the actor runtime until its event heap is empty and no
// issue window remains open, resolving every issued operation; it returns
// the number of processed events. On chained engines (no shared heap) it is
// a no-op: issued operations completed at issue time.
func (g *Grid) DrainIssued() int {
	if rt := g.Runtime(); rt != nil {
		return rt.Drain(nil)
	}
	return 0
}
