package acp

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TwoPC is the classic presumed-abort two-phase commit. The coordinator's
// decision record is the commit point; participants that voted yes and hear
// nothing are blocked (orphan transactions) until the coordinator answers a
// decision request — the blocking behaviour experiment E5 measures.
type TwoPC struct{}

// Name implements Protocol.
func (TwoPC) Name() string { return "2pc" }

// ThreePhase implements Protocol.
func (TwoPC) ThreePhase() bool { return false }

// Commit implements Protocol.
func (TwoPC) Commit(ctx context.Context, c Cohort, log wal.Log, opts Options, req Request, onDecision func(bool)) (bool, error) {
	opts = opts.withDefaults()
	act := trace.FromContext(ctx)
	prep := act.StartSpan(trace.StagePrepare, "2pc votes")
	commit, cohort, voteErr := collectVotes(ctx, c, opts, req, false)
	prep.End()

	dec := act.StartSpan(trace.StageDecide, "2pc decision")
	// Force the decision record — the commit point. Under presumed abort an
	// abort decision need not be forced, but logging it keeps the decision
	// table complete for decision-request serving.
	if err := log.Append(wal.Record{Type: wal.RecDecision, Tx: req.Tx, Commit: commit}); err != nil {
		dec.End()
		return false, fmt.Errorf("acp: 2pc decision log: %w", err)
	}
	if onDecision != nil {
		onDecision(commit)
	}

	allAcked := broadcastDecision(ctx, c, opts, req, cohort, commit)
	dec.End()
	if allAcked {
		// All phase-2 participants acknowledged: no recovery work remains.
		// The end record retires the coordinator's decision entry (via the
		// site's ForceEnd routing), and the end round lets the cohort retire
		// theirs, so checkpoints stop mirroring the dead decision.
		log.Append(wal.Record{Type: wal.RecEnd, Tx: req.Tx}) //nolint:errcheck
		broadcastEnd(ctx, c, opts, req, cohort)
	}

	if commit {
		return true, nil
	}
	if voteErr != nil {
		return false, voteErr
	}
	return false, model.Abortf(model.AbortACP, "2pc: aborted")
}

// collectVotes runs phase 1 as one round and reports the decision plus the
// phase-2 cohort (participants that voted read-only are released and
// excluded). The returned error classifies a negative outcome (vote no,
// unreachable participant, coordinator cancellation).
func collectVotes(ctx context.Context, c Cohort, opts Options, req Request, threePhase bool) (bool, []model.SiteID, error) {
	prepare := func(site model.SiteID) Msg {
		var incarnation uint64
		if req.IncarnationFor != nil {
			incarnation = req.IncarnationFor(site)
		}
		return Msg{Phase: PhasePrepare, Tx: req.Tx, Prepare: wire.PrepareReq{
			Tx:            req.Tx,
			TS:            req.TS,
			Coordinator:   req.Coordinator,
			Writes:        req.WritesFor(site),
			Participants:  req.Participants,
			Voters:        req.Voters,
			ThreePhase:    threePhase,
			NoReadOnlyOpt: req.NoReadOnlyOpt,
			Epoch:         req.Epoch,
			Incarnation:   incarnation,
		}}
	}
	commit := true
	var cohort []model.SiteID
	var cause error
	for _, r := range round(ctx, c, req.Coordinator, req.Participants, prepare, opts.Vote) {
		switch {
		case r.Err != nil:
			commit = false
			cohort = append(cohort, r.Site)
			if cause == nil {
				cause = model.Abortf(model.AbortACP, "prepare at %s failed: %v", r.Site, r.Err)
			}
		case !r.Vote.Yes:
			commit = false
			cohort = append(cohort, r.Site)
			if cause == nil {
				cause = model.Abortf(model.AbortACP, "%s voted no: %s", r.Site, r.Vote.Reason)
			}
		case r.Vote.ReadOnly:
			// Released at vote time; no phase 2 for this site.
		default:
			cohort = append(cohort, r.Site)
		}
	}
	return commit, cohort, cause
}

// broadcastEnd sends the cohort-fully-acknowledged signal to the
// participants, fire-and-forget and detached from the caller's context (the
// transaction is already committed and its context may die with it).
// Losses are harmless — see PhaseEnd.
func broadcastEnd(ctx context.Context, c Cohort, opts Options, req Request, cohort []model.SiteID) {
	end := Msg{Phase: PhaseEnd, Tx: req.Tx}
	round(context.WithoutCancel(ctx), c, req.Coordinator, cohort, func(model.SiteID) Msg { return end }, opts.Ack)
}

// broadcastDecision runs phase 2 as one round over the voting cohort,
// reporting whether every member acknowledged. Unacknowledged members
// resolve later via decision requests.
func broadcastDecision(ctx context.Context, c Cohort, opts Options, req Request, cohort []model.SiteID, commit bool) bool {
	return acks(ctx, c, opts, req, cohort, Msg{Phase: PhaseDecide, Tx: req.Tx, Commit: commit}) == len(cohort)
}

// acks delivers msg to the cohort in one round bounded by the ack timeout
// and counts the acknowledgements.
func acks(ctx context.Context, c Cohort, opts Options, req Request, cohort []model.SiteID, msg Msg) int {
	n := 0
	for _, r := range round(ctx, c, req.Coordinator, cohort, func(model.SiteID) Msg { return msg }, opts.Ack) {
		if r.Err == nil {
			n++
		}
	}
	return n
}
