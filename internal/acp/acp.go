// Package acp implements Rainbow's atomic commit protocols (ACPs):
// two-phase commit (2PC, the paper's default) and three-phase commit (3PC,
// the paper's suggested term-project replacement).
//
// The package provides both halves of each protocol: the coordinator state
// machine run by a transaction's home site (Protocol.Commit) and the
// participant state machine embedded in every site (Participant), including
// WAL forcing rules, decision retries, presumed-abort decision serving,
// crash recovery of in-doubt transactions, and 3PC's cooperative
// termination protocol. Blocked in-doubt participants are the paper's
// "orphan transactions" statistic.
package acp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TermState values reported by participants during termination.
const (
	StateNone         uint8 = iota // no trace of the transaction
	StatePrepared                  // voted yes, uncertain
	StatePreCommitted              // 3PC: accepted a commit pre-decision
	StateCommitted
	StateAborted
	// StatePreAborted is 3PC's symmetric pre-decision: the member accepted
	// an elected initiator's abort pre-decision (quorum termination may
	// only abort through it, exactly as it may only commit through
	// pre-commit).
	StatePreAborted
)

// StateName renders a TermState for logs.
func StateName(s uint8) string {
	switch s {
	case StateNone:
		return "none"
	case StatePrepared:
		return "prepared"
	case StatePreCommitted:
		return "precommitted"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	case StatePreAborted:
		return "preaborted"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// ErrInDoubt is returned by a 3PC coordinator whose outcome could not be
// resolved within the call: a pre-commit round that missed its quorum (or a
// termination attempt that could not reach one) leaves the transaction
// legitimately undecided — deciding unilaterally could contradict a quorum
// termination on the other side of a partition. The caller must NOT release
// the cohort's CC state (the transaction may yet commit); the participants'
// resolver loops drive it to an outcome. The cause is AbortInDoubt, not
// AbortACP: workload retry loops must not resubmit the work (the original
// transaction may still commit — a blind retry would double-execute it) and
// abort statistics must not count an unresolved outcome as a clean abort.
var ErrInDoubt = &model.AbortError{Cause: model.AbortInDoubt, Reason: "3pc: outcome unresolved (pre-commit quorum unreachable); quorum termination will decide"}

// Phase names the coordinator message a round delivers.
type Phase uint8

// Coordinator message phases.
const (
	// PhasePrepare is phase 1: the reply carries the participant's vote.
	PhasePrepare Phase = iota + 1
	// PhasePreCommit is 3PC's pre-commit. Its ack means the participant
	// FORCED its pre-committed state: the coordinator may decide commit
	// only after a majority of the electorate acked (the commit quorum any
	// later termination must intersect).
	PhasePreCommit
	// PhaseDecide delivers the final decision; its ack means it applied.
	PhaseDecide
	// PhaseEnd tells a participant the whole cohort acknowledged the
	// decision, so it may retire its decision-table entry. Best-effort and
	// one-way: the coordinator is the resort of record (it retains its own
	// entry until every ack is in), so a lost end message costs only a
	// lingering table entry, never a wrong resolution.
	PhaseEnd
)

// Msg is one coordinator message to one participant.
type Msg struct {
	Phase   Phase
	Tx      model.TxID
	Prepare wire.PrepareReq // PhasePrepare only
	Commit  bool            // PhaseDecide only
}

// Reply is one participant's answer to a Msg: the vote for PhasePrepare,
// an ack (Err nil) for the other phases.
type Reply struct {
	Site model.SiteID
	Vote wire.VoteResp
	Err  error
}

// Cohort is the coordinator's transport face: how it reaches participants.
// The site implements it over the wire layer, delivering to itself
// directly.
type Cohort interface {
	// Deliver runs msg at the coordinator's own site, inline.
	Deliver(ctx context.Context, msg Msg) Reply
	// Post sends msg to a remote participant and returns without waiting.
	// Its reply arrives on replies later, unless Forget(call) runs first;
	// the sender must not block, so the caller keeps a free slot in replies
	// for every message in flight. A PhaseEnd message expects no reply:
	// nothing arrives and call is 0. An error means nothing was sent.
	Post(ctx context.Context, site model.SiteID, msg Msg, replies chan<- Reply) (call uint64, err error)
	// Forget abandons a posted message: a reply arriving later is dropped.
	Forget(call uint64)
}

// errNoReply is the reply of a participant that did not answer within its
// round.
var errNoReply = errors.New("acp: no reply within the round's timeout")

// round delivers one message to every site in sites at once and returns
// the replies in sites order. It posts every remote message first,
// delivers the coordinator's own (self) inline, then collects the remote
// replies on one channel until all are in, timeout passes or ctx ends
// (wire.Collect): one timer per round, no goroutine or timeout context per
// participant. Messages still unanswered when the round ends are forgotten
// (a late reply is dropped) and carry errNoReply, or ctx's error. One-way
// messages are not waited for.
func round(ctx context.Context, c Cohort, self model.SiteID, sites []model.SiteID, msgFor func(model.SiteID) Msg, timeout time.Duration) []Reply {
	out := make([]Reply, len(sites))
	calls := make([]uint64, len(sites)) // nonzero while a reply is awaited
	pending, local := 0, -1
	var replies chan Reply
	for i, site := range sites {
		out[i].Site = site
		if site == self {
			local = i
			continue
		}
		if replies == nil {
			replies = make(chan Reply, len(sites))
		}
		call, err := c.Post(ctx, site, msgFor(site), replies)
		if err != nil {
			out[i].Err = err
			continue
		}
		if calls[i] = call; call != 0 {
			pending++
		}
	}
	if pending > 0 && local >= 0 {
		// The sends woke the connections' writer goroutines, the last one
		// into this P's run-next slot, where it would wait until this
		// goroutine blocks — for the coordinator's own prepare, behind a
		// WAL fsync that keeps the P for a while. Yield so the messages
		// flush first.
		runtime.Gosched()
	}
	if local >= 0 {
		out[local] = c.Deliver(ctx, msgFor(self))
		out[local].Site = self
	}
	wire.Collect(ctx, replies, pending, timeout, func(r Reply) bool {
		i := slices.Index(sites, r.Site)
		out[i], calls[i] = r, 0
		return true
	})
	for i, call := range calls {
		if call != 0 {
			c.Forget(call)
			out[i].Err = errNoReply
			if err := ctx.Err(); err != nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// Options bounds the coordinator's waits, one deadline per round.
type Options struct {
	// Vote bounds the wait for the participants' votes.
	Vote time.Duration
	// Ack bounds the wait for decision / pre-commit acknowledgements.
	Ack time.Duration
}

// withDefaults fills zero timeouts so a zero Options never spins.
func (o Options) withDefaults() Options {
	if o.Vote == 0 {
		o.Vote = 2 * time.Second
	}
	if o.Ack == 0 {
		o.Ack = 2 * time.Second
	}
	return o
}

// Request describes one commit run.
type Request struct {
	Tx           model.TxID
	TS           model.Timestamp
	Coordinator  model.SiteID
	Participants []model.SiteID
	// WritesFor returns the write records a participant must install.
	WritesFor func(model.SiteID) []model.WriteRecord
	// NoReadOnlyOpt disables the read-only participant optimization
	// (ablation knob; the optimization is on by default).
	NoReadOnlyOpt bool
	// Epoch is the catalog epoch the transaction began under, carried in
	// every prepare for the participants' epoch fence (see
	// wire.PrepareReq.Epoch).
	Epoch uint64
	// Voters is the 3PC termination electorate (see wire.PrepareReq.
	// Voters): participants holding writes, or all participants when the
	// read-only optimization is off. Leaving it empty DISABLES quorum
	// termination for the transaction (in-doubt members then resolve only
	// through known-decision queries, like legacy pre-electorate records)
	// — 3PC callers must populate it.
	Voters []model.SiteID
	// IncarnationFor returns the incarnation number site reported when this
	// transaction operated there (0 = unknown), for the participants'
	// incarnation fence (see wire.PrepareReq.Incarnation). Nil skips it.
	IncarnationFor func(model.SiteID) uint64
}

// Protocol is an atomic commit protocol, run by the coordinator.
type Protocol interface {
	// Name returns "2pc" or "3pc".
	Name() string
	// ThreePhase reports whether participants should run the 3PC machine.
	ThreePhase() bool
	// Commit drives the protocol to a decision. It returns the decision
	// (true = commit); a false decision is accompanied by an error carrying
	// the abort cause. onDecision fires exactly once, immediately after the
	// decision is logged and before it is propagated, so the caller can
	// serve decision requests for recovering participants.
	Commit(ctx context.Context, c Cohort, log wal.Log, opts Options, req Request, onDecision func(commit bool)) (bool, error)
}

// New constructs a protocol by name.
func New(name string) (Protocol, error) {
	switch name {
	case "2pc", "2PC", "":
		return TwoPC{}, nil
	case "3pc", "3PC":
		return ThreePC{}, nil
	default:
		return nil, fmt.Errorf("acp: unknown atomic commit protocol %q", name)
	}
}

// Names lists the available ACP names.
func Names() []string { return []string{"2pc", "3pc"} }
