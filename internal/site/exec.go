package site

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/acp"
	"repro/internal/model"
	"repro/internal/rcp"
	"repro/internal/wire"
)

// Execute runs a one-shot transaction with this site as its home site,
// exactly as the paper describes (§2.1): the dedicated goroutine invokes
// the RCP for each operation in order, then the home site runs the atomic
// commit protocol over every touched site. It is Begin + ops + Commit over
// the interactive Txn API.
func (s *Site) Execute(ctx context.Context, ops []model.Op) model.Outcome {
	t, err := s.Begin(ctx)
	if err != nil {
		return model.Outcome{Committed: false, Cause: model.AbortClient, HomeSite: s.id}
	}
	for _, op := range orderedOps(ops) {
		switch op.Kind {
		case model.OpRead:
			_, err = t.Read(op.Item)
		case model.OpWrite:
			err = t.Write(op.Item, op.Value)
		case model.OpAdd:
			err = t.Add(op.Item, op.Value)
		default:
			err = model.Abortf(model.AbortClient, "invalid op kind %d", op.Kind)
			t.doomed = err
		}
		if err != nil {
			return t.Abort()
		}
	}
	return t.Commit()
}

// orderedOps reorders a one-shot batch by item ID so concurrent transactions
// acquire contended locks in one global order — contending batches then queue
// instead of deadlocking into lock-timeout churn. Safe only for one-shot
// programs whose items are all distinct: a repeated item makes the program
// order-sensitive (last write wins, read-your-writes), so those batches run
// as submitted. The common already-sorted case returns the input unchanged.
func orderedOps(ops []model.Op) []model.Op {
	seen := make(map[model.ItemID]bool, len(ops))
	sorted := true
	for i := range ops {
		if seen[ops[i].Item] {
			return ops
		}
		seen[ops[i].Item] = true
		if i > 0 && ops[i].Item < ops[i-1].Item {
			sorted = false
		}
	}
	if sorted {
		return ops
	}
	out := make([]model.Op, len(ops))
	copy(out, ops)
	sort.Slice(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	return out
}

// classify maps an execution error onto the paper's abort-cause taxonomy.
func classify(err error) model.AbortCause {
	switch c := model.CauseOf(err); c {
	case model.AbortNone:
		return model.AbortClient
	case model.AbortClient:
		// Context timeouts during RCP ops count as replication-level
		// failures (copies unreachable). errors.Is, not ==: transports and
		// RPC layers wrap the context error, and a wrapped deadline
		// misclassified as a client abort would hide replication failures
		// from the abort-cause statistics.
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return model.AbortRCP
		}
		return model.AbortClient
	default:
		return c
	}
}

// releaseEverywhere discards CC state for an aborted-before-commit
// transaction at every touched site, plus any stray attempted sites where
// a timed-out operation may have succeeded late (KindReleaseTx).
func (s *Site) releaseEverywhere(sess *rcp.Session) {
	for _, site := range append(sess.Participants(), sess.Strays()...) {
		s.releaseAt(site, sess.Tx)
	}
}

// releaseStrays sends releases to attempted-but-unenlisted sites only.
func (s *Site) releaseStrays(sess *rcp.Session) {
	for _, site := range sess.Strays() {
		s.releaseAt(site, sess.Tx)
	}
}

// releaseAt releases one site's CC state for an aborted transaction. The
// local path aborts directly; the remote path acknowledges and retries in
// the background — a release silently lost to a partition or a paused link
// would otherwise strand the remote intent (and its locks) forever, since
// an unprepared transaction has no WAL trace for any recovery path to
// clean up. Attempts are bounded, and the retry loop rides lifeCtx, NOT
// the incarnation's runCtx: a simulated crash must not drop the pending
// releases of already-aborted transactions (the fabric enforces fail-stop
// by discarding a paused site's sends; retries flush after resume). Close
// cancels lifeCtx, so no goroutine outlives the site object.
func (s *Site) releaseAt(site model.SiteID, tx model.TxID) {
	if site == s.id {
		s.mu.Lock()
		ccm := s.ccm
		s.mu.Unlock()
		ccm.Abort(tx)
		return
	}
	life := s.lifeCtx
	go func() {
		for attempt := 0; attempt < 5; attempt++ {
			ctx, cancel := context.WithTimeout(life, time.Second)
			err := s.peer.Call(ctx, site, wire.KindReleaseTx, &wire.ReleaseTxReq{Tx: tx}, nil)
			cancel()
			if err == nil || life.Err() != nil {
				return
			}
			select {
			case <-life.Done():
				return
			case <-time.After(time.Duration(attempt+1) * 200 * time.Millisecond):
			}
		}
		// All attempts exhausted: the remote CC state is stranded until that
		// site's CC janitor presumed-abort-queries us. Count and report it —
		// a silently abandoned release looks exactly like a leak from the
		// outside, and the counter is what distinguishes "the janitor is the
		// cleanup path now" from "releases are being lost".
		s.releasesAbandoned.Add(1)
		log.Printf("site %s: abandoned release of %s at %s after 5 attempts (remote janitor takes over)", s.id, tx, site)
	}()
}

// mergeContexts returns a context cancelled when either input is.
func mergeContexts(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

// ---- rcp.CopyAccess implementation ----

// txnAccess is a transaction's rcp.CopyAccess: the home site's copy
// operations, bounded per round by the Op timeout the transaction began
// with. It is the Txn itself under another method set, so handing it to
// the RCP costs no allocation.
type txnAccess Txn

// Local implements rcp.CopyAccess.
func (a *txnAccess) Local() model.SiteID { return a.s.id }

// OpTimeout implements rcp.CopyAccess.
func (a *txnAccess) OpTimeout() time.Duration { return a.timeouts.Op }

// Forget implements rcp.CopyAccess.
func (a *txnAccess) Forget(call uint64) { a.s.peer.Forget(call) }

// LocalCopy implements rcp.CopyAccess: the operation runs through this
// site's own CCP, reporting the site's incarnation number for the
// prepare-time incarnation fence.
func (a *txnAccess) LocalCopy(ctx context.Context, tx model.TxID, ts model.Timestamp, op rcp.CopyOp) rcp.CopyResult {
	s := a.s
	s.mu.Lock()
	ccm := s.ccm
	inc := s.incarnation
	s.mu.Unlock()
	r := rcp.CopyResult{Site: s.id, Incarnation: inc}
	switch op.Kind {
	case model.OpRead:
		r.Value, r.Version, r.Err = ccm.Read(ctx, tx, ts, op.Item)
		if r.Err == nil {
			s.hist.Record(tx, model.OpRead, op.Item, r.Value, r.Version)
		}
	case model.OpAdd:
		r.Version, r.Err = ccm.PreAdd(ctx, tx, ts, op.Item, op.Value)
	default:
		r.Version, r.Err = ccm.PreWrite(ctx, tx, ts, op.Item, op.Value)
	}
	return r
}

// SendCopy implements rcp.CopyAccess: a ReadCopy, or a PreWrite (with the
// Add flag for blind adds — one hot-path message kind, one pipeline). The
// reply is decoded on the transport goroutine that receives it and
// delivered on results.
func (a *txnAccess) SendCopy(ctx context.Context, site model.SiteID, tx model.TxID, ts model.Timestamp, op rcp.CopyOp, results chan<- rcp.CopyResult) (uint64, error) {
	s := a.s
	kind := wire.KindPreWrite
	var body wire.Body
	if op.Kind == model.OpRead {
		kind = wire.KindReadCopy
		body = &wire.ReadCopyReq{Tx: tx, TS: ts, Item: op.Item}
	} else {
		body = &wire.PreWriteReq{Tx: tx, TS: ts, Item: op.Item, Value: op.Value, Add: op.Kind == model.OpAdd}
	}
	s.stats.AddRoundTrips(1)
	return s.peer.Start(ctx, site, kind, body, func(env *wire.Envelope) {
		results <- s.copyReply(site, kind, env)
	})
}

// copyReply decodes one copy operation's reply (nil: the peer closed) and
// witnesses the replier's clock.
func (s *Site) copyReply(site model.SiteID, kind wire.MsgKind, env *wire.Envelope) rcp.CopyResult {
	r := rcp.CopyResult{Site: site}
	if env == nil {
		r.Err = wire.ErrClosed
		return r
	}
	var clock uint64
	if kind == wire.KindReadCopy {
		var resp wire.ReadCopyResp
		if r.Err = wire.DecodeReply(env, &resp); r.Err != nil {
			return r
		}
		r.Value, r.Version, r.Incarnation, clock = resp.Value, resp.Version, resp.Incarnation, resp.Clock
	} else {
		var resp wire.PreWriteResp
		if r.Err = wire.DecodeReply(env, &resp); r.Err != nil {
			return r
		}
		r.Version, r.Incarnation, clock = resp.Version, resp.Incarnation, resp.Clock
	}
	s.clock.Witness(model.Timestamp{Time: clock, Site: site})
	return r
}

// ---- acp.Cohort implementation ----

// Deliver implements acp.Cohort: the coordinator's own participant leg.
func (s *Site) Deliver(ctx context.Context, msg acp.Msg) acp.Reply {
	r := acp.Reply{Site: s.id}
	switch msg.Phase {
	case acp.PhasePrepare:
		r.Vote = s.votePrepare(msg.Prepare)
	case acp.PhasePreCommit:
		r.Err = s.handlePreCommit(msg.Tx)
	case acp.PhaseDecide:
		r.Err = s.Decide(ctx, s.id, msg.Tx, msg.Commit)
	case acp.PhaseEnd:
		s.mu.Lock()
		part := s.part
		s.mu.Unlock()
		part.Retire(msg.Tx)
	}
	return r
}

// Post implements acp.Cohort. The end notification is a Cast (no response
// awaited): the participant retires its decision-table entry on receipt,
// and a lost message only leaves the entry lingering until the site
// restarts without it.
func (s *Site) Post(ctx context.Context, site model.SiteID, msg acp.Msg, replies chan<- acp.Reply) (uint64, error) {
	var (
		kind wire.MsgKind
		body wire.Body
	)
	switch msg.Phase {
	case acp.PhasePrepare:
		kind, body = wire.KindPrepare, &msg.Prepare
	case acp.PhasePreCommit:
		kind, body = wire.KindPreCommit, &wire.PreCommitReq{Tx: msg.Tx}
	case acp.PhaseDecide:
		kind, body = wire.KindDecision, &wire.DecisionMsg{Tx: msg.Tx, Commit: msg.Commit}
	default:
		return 0, s.peer.Cast(ctx, site, wire.KindEndTx, &wire.EndTxMsg{Tx: msg.Tx})
	}
	s.stats.AddRoundTrips(1)
	return s.peer.Start(ctx, site, kind, body, func(env *wire.Envelope) {
		r := acp.Reply{Site: site, Err: wire.ErrClosed}
		if env != nil {
			var vote wire.Body // acks carry no body
			if kind == wire.KindPrepare {
				vote = &r.Vote
			}
			r.Err = wire.DecodeReply(env, vote)
		}
		replies <- r
	})
}

// Forget implements acp.Cohort.
func (s *Site) Forget(call uint64) { s.peer.Forget(call) }

// votePrepare validates phase 1 before handing it to the participant. Four
// guards close the lost-protection window between copy operations and
// prepare:
//
//   - the incarnation fence: the prepare echoes the incarnation number
//     this site reported when the transaction first operated here; a crash
//     recovery (or live rebuild) in between bumped it, so the CC
//     protection backing this prepare is gone — vote no, deterministically
//     and regardless of what state the new incarnation happens to hold;
//   - the epoch fence: a transaction begun under an epoch older than this
//     site's last live rebuild votes no (Site.fence);
//   - the release tombstone: a transaction this site already released (an
//     abort, or the CC janitor's presumed-abort cleanup) must not prepare —
//     its read locks are gone, so even a read-only yes could commit a
//     stale read;
//   - intent validation: the CC manager must still buffer a pre-write
//     intent for every item in the shipped write set.
//
// All guards are skipped for transactions the participant already tracks
// (duplicate prepares, recovered in-doubt state, recorded decisions) —
// those are the participant's own idempotency paths.
//
// The guards and the participant's force-write run as ONE unit under the
// site gate's read side: a live rebuild takes the gate's write side, so it
// either completes before the guards read the (new) fence and CC manager,
// or waits until the prepare has fully forced and registered — it can
// never interleave between a passed check and the force, which would let
// an unprotected prepare slip into the new stack. (The CC janitor's
// check-then-release runs under the gate's write side for the same
// reason.)
func (s *Site) votePrepare(req wire.PrepareReq) wire.VoteResp {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	fence := s.fence
	incarnation := s.incarnation
	part := s.part
	ccm := s.ccm
	s.mu.Unlock()
	if known := part.Prepared(req.Tx); !known {
		if _, decided := part.Decision(req.Tx); !decided {
			if req.Incarnation != 0 && req.Incarnation != incarnation {
				return wire.VoteResp{Yes: false, Reason: fmt.Sprintf("incarnation fence: transaction operated under incarnation %d, site is at %d", req.Incarnation, incarnation)}
			}
			if req.Epoch < fence {
				return wire.VoteResp{Yes: false, Reason: fmt.Sprintf("epoch fence: transaction epoch %d < rebuild epoch %d", req.Epoch, fence)}
			}
			if s.isReleased(req.Tx) {
				return wire.VoteResp{Yes: false, Reason: "transaction already released at this site"}
			}
			if len(req.Writes) > 0 {
				items := make([]model.ItemID, len(req.Writes))
				for i, w := range req.Writes {
					items[i] = w.Item
				}
				if !ccm.HoldsIntents(req.Tx, items) {
					return wire.VoteResp{Yes: false, Reason: "pre-write intents lost (crash or reconfiguration between pre-write and prepare)"}
				}
			}
		}
	}
	// The coordinator prepares only after the transaction's last copy
	// operation, so it takes no more locks: under wait-die younger
	// requesters may now wait for it rather than abort.
	if c, ok := ccm.(interface{ Committing(model.TxID) }); ok {
		c.Committing(req.Tx)
	}
	return part.HandlePrepare(req)
}

// handlePreCommit forces the participant's pre-commit transition under the
// site gate's read side (like every record-forcing path, so reconfiguration
// and fuzzy snapshots observe a quiescent record stream).
func (s *Site) handlePreCommit(tx model.TxID) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	return part.HandlePreCommit(tx)
}

// handleTermQuery serves a quorum-termination election query under the
// gate's read side (it may force a RecElect promise).
func (s *Site) handleTermQuery(tx model.TxID, ballot model.Ballot) wire.TermQueryResp {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	return part.HandleTermQuery(tx, ballot)
}

// handlePreDecide serves a quorum-termination pre-decision under the
// gate's read side (it forces a RecPreDecide on acceptance).
func (s *Site) handlePreDecide(tx model.TxID, ballot model.Ballot, commit bool) wire.TermPreDecideResp {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	return part.HandlePreDecide(tx, ballot, commit)
}

// Decide delivers a decision to site and waits for its ack; the local
// path applies it directly.
func (s *Site) Decide(ctx context.Context, site model.SiteID, tx model.TxID, commit bool) error {
	if site == s.id {
		s.mu.Lock()
		part := s.part
		s.mu.Unlock()
		return part.HandleDecision(tx, commit)
	}
	err := s.peer.Call(ctx, site, wire.KindDecision, &wire.DecisionMsg{Tx: tx, Commit: commit}, nil)
	s.stats.AddRoundTrips(1)
	return err
}

// ---- acp.Resolver implementation ----

// QueryDecision implements acp.Resolver.
func (s *Site) QueryDecision(ctx context.Context, site model.SiteID, tx model.TxID, threePhase bool) (bool, bool, error) {
	if site == s.id {
		commit, known := s.localDecision(tx, threePhase)
		return known, commit, nil
	}
	resp, err := wire.Call[wire.DecisionResp](ctx, s.peer, site, wire.KindDecisionReq, &wire.DecisionReq{Tx: tx, ThreePhase: threePhase})
	s.stats.AddRoundTrips(1)
	if err != nil {
		return false, false, err
	}
	return resp.Known, resp.Commit, nil
}

// QueryTermination implements acp.Resolver (the election leg of quorum
// termination), with a loopback fast path so the initiator's own state
// participates uniformly.
func (s *Site) QueryTermination(ctx context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot) (wire.TermQueryResp, error) {
	if site == s.id {
		return s.handleTermQuery(tx, ballot), nil
	}
	resp, err := wire.Call[wire.TermQueryResp](ctx, s.peer, site, wire.KindTermQuery, &wire.TermQueryReq{Tx: tx, Ballot: ballot})
	s.stats.AddRoundTrips(1)
	if err != nil {
		return wire.TermQueryResp{}, err
	}
	return *resp, nil
}

// SendPreDecide implements acp.Resolver (the pre-decision leg of quorum
// termination).
func (s *Site) SendPreDecide(ctx context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot, commit bool) (wire.TermPreDecideResp, error) {
	if site == s.id {
		return s.handlePreDecide(tx, ballot, commit), nil
	}
	resp, err := wire.Call[wire.TermPreDecideResp](ctx, s.peer, site, wire.KindTermPreDecide, &wire.TermPreDecideReq{Tx: tx, Ballot: ballot, Commit: commit})
	s.stats.AddRoundTrips(1)
	if err != nil {
		return wire.TermPreDecideResp{}, err
	}
	return *resp, nil
}

// SendDecision implements acp.Resolver: deliver a termination decision.
func (s *Site) SendDecision(ctx context.Context, site model.SiteID, tx model.TxID, commit bool) error {
	return s.Decide(ctx, site, tx, commit)
}

// localDecision answers a decision request against local knowledge,
// implementing presumed abort for 2PC transactions this site coordinated:
// if we coordinated tx, it is not currently active, and no decision is
// logged, the transaction must have aborted (a commit is always logged
// before being announced).
//
// Presumed abort is NEVER sound for a 3PC transaction: the cohort can
// commit by quorum termination without its coordinator, so a recovered
// coordinator with no record — even one that was never a cohort member and
// so holds no in-doubt state to warn it — must answer "unknown" and let
// quorum termination decide the outcome. The requester marks 3PC queries
// (it knows from its prepared record); the in-doubt check below
// additionally covers member coordinators queried without the mark.
func (s *Site) localDecision(tx model.TxID, threePhase bool) (commit, known bool) {
	s.mu.Lock()
	part := s.part
	active := s.activeCoord[tx]
	s.mu.Unlock()
	if c, ok := part.Decision(tx); ok {
		return c, true
	}
	if active {
		return false, false // still deciding: caller must wait
	}
	if tx.Site == s.id {
		if threePhase || part.InDoubtThreePhase(tx) {
			return false, false // 3PC: the cohort may yet commit without us
		}
		return false, true // presumed abort
	}
	return false, false
}

var errCrashed = fmt.Errorf("site crashed")
