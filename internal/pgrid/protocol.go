package pgrid

// Discrete-event protocol of the actor executor.
//
// These messages travel only on the asyncnet.Runtime, wrapped in
// asyncnet.Envelope frames that carry the operation's correlation id, the
// initiator to reply to, and an optional deadline. The network cost of every
// step is accounted separately on the fabric with the same wire messages the
// chained executor sends (lookupMsg, rangeMsg, resultMsg, ...), so message
// and byte counts are identical across executors; the structures below carry
// only the per-step control state a handler needs to continue the operation.

// routeStepMsg is one iteration of Algorithm 1's routing loop: inspect the
// peer it was delivered to, stop if the operation's predicate holds, else
// forward to a reference in the complementary subtrie. budget bounds the
// remaining iterations exactly like the chained loop's hop cap, so a
// non-converging route fails with ErrRoutingExhausted after the same number
// of messages.
type routeStepMsg struct {
	hops   int64
	budget int
}

func (routeStepMsg) Size() int    { return 0 }
func (routeStepMsg) Kind() string { return "pgrid.step.route" }

// multiStepMsg is one node of the batched multicast: serve the keys this
// partition is responsible for, split the rest over sibling subtries. batch
// is the node's disjoint range of the operation's key buffer.
type multiStepMsg struct {
	batch multiBatch
	scope int
	hops  int64
}

func (multiStepMsg) Size() int    { return 0 }
func (multiStepMsg) Kind() string { return "pgrid.step.multi" }

// showerStepMsg is one node of the shower multicast: serve the overlapping
// range locally, forward into every overlapping sibling subtrie.
type showerStepMsg struct {
	scope int
	hops  int64
}

func (showerStepMsg) Size() int    { return 0 }
func (showerStepMsg) Kind() string { return "pgrid.step.shower" }

// applyMsg applies a routed insert or delete at a structural replica.
type applyMsg struct {
	del  bool
	hops int64
}

func (applyMsg) Size() int    { return 0 }
func (applyMsg) Kind() string { return "pgrid.step.apply" }

// opResult is the reply payload of the result-return leg: the span of the
// operation's reply arena a contacted peer served its postings into, and
// the forwarding depth of the path that produced them.
type opResult struct {
	span replySpan
	hops int64
}

func (opResult) Size() int    { return 0 }
func (opResult) Kind() string { return "pgrid.step.result" }
