package rcp

import (
	"context"

	"repro/internal/model"
	"repro/internal/schema"
)

// QC is Gifford-style weighted-voting quorum consensus, Rainbow's default
// RCP (paper §2.1: "QC starts by building a quorum (read or write) for the
// first operation of the transaction").
//
// A logical read assembles a read quorum of copies and returns the value
// carried by the highest version number in the quorum; a logical write
// pre-writes a write quorum and installs max(version)+1 at its members.
// Copies that fail to respond are replaced by other vote-holders; the
// operation aborts with cause RCP only when the remaining copies cannot
// carry a quorum.
type QC struct{}

// Name implements Protocol.
func (QC) Name() string { return "qc" }

// Read implements Protocol: the value carried by the highest version in a
// read quorum.
func (QC) Read(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta) (int64, error) {
	members, err := buildQuorum(ctx, acc, sess, meta, meta.ReadQuorum, CopyOp{Kind: model.OpRead, Item: meta.Item})
	if err != nil {
		return 0, err
	}
	best := members[0]
	for _, r := range members[1:] {
		if r.Version > best.Version {
			best = r
		}
	}
	return best.Value, nil
}

// Write implements Protocol.
func (QC) Write(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, value int64) error {
	op := CopyOp{Kind: model.OpWrite, Item: meta.Item, Value: value}
	// A repeated write of an item this transaction already wrote is pinned
	// to the original write quorum: every member re-pre-writes (their
	// X-locks/intents are already ours, so this cannot block on strangers)
	// and the recorded value is replaced in place, keeping the install
	// version. Picking a fresh quorum here would be a correctness bug: a
	// member of the old quorum outside the new one would keep the stale
	// record, and commit would install two different values under the same
	// version number on different copies.
	if sites, prev, ok := sess.WriteQuorum(meta.Item); ok {
		for _, r := range round(ctx, acc, sess, sites, op) {
			if r.Err != nil {
				return r.Err
			}
		}
		rec := model.WriteRecord{Item: meta.Item, Value: value, Version: prev.Version}
		for _, site := range sites {
			sess.RecordWrite(site, rec)
		}
		return nil
	}
	members, err := buildQuorum(ctx, acc, sess, meta, meta.WriteQuorum, op)
	if err != nil {
		return err
	}
	var maxVer model.Version
	for _, r := range members {
		maxVer = max(maxVer, r.Version)
	}
	rec := model.WriteRecord{Item: meta.Item, Value: value, Version: maxVer + 1}
	for _, r := range members {
		sess.RecordWrite(r.Site, rec)
	}
	return nil
}

// Add implements Protocol: blind adds pre-write ALL copies, not a write
// quorum — a quorum read resolves by version number and cannot reconstruct
// a delta a non-member copy missed (see Protocol.Add).
func (QC) Add(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, delta int64) error {
	return addAll(ctx, "qc", acc, sess, meta, delta)
}

// buildQuorum gathers `need` votes for one operation and returns the
// members' results. It first picks the minimal preferred vote set (assuming
// all sites up — this is what keeps QC message counts near the quorum size,
// the property experiment E2 measures), runs the copy operation at the set
// in one round, and replaces failed members with the remaining
// vote-holders, a round each, until the quorum is complete or provably
// unreachable.
func buildQuorum(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, need int, op CopyOp) ([]CopyResult, error) {
	assignment := meta.Assignment()
	prefer := preferredOrder(acc, meta)
	tried := make(map[model.SiteID]bool)
	gotVotes := 0
	var members []CopyResult

	for gotVotes < need {
		// Select sites to cover the remaining votes, excluding failures and
		// already-counted members.
		picked, ok := assignment.Pick(need-gotVotes, prefer, tried)
		if !ok || len(picked) == 0 {
			return nil, model.Abortf(model.AbortRCP,
				"qc: quorum of %d votes unreachable for %s (%d gathered)", need, meta.Item, gotVotes)
		}
		for _, site := range picked {
			tried[site] = true
		}
		for _, r := range round(ctx, acc, sess, picked, op) {
			switch {
			case r.Err == nil:
				gotVotes += assignment.Votes[r.Site]
				members = append(members, r)
			case isCC(r.Err):
				// The remote CCP rejected the operation: the transaction is
				// doomed.
				return nil, r.Err
			default:
				// Unreachable copy: leave it excluded and re-pick.
			}
		}
	}
	return members, nil
}
