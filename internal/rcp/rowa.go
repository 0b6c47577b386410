package rcp

import (
	"context"

	"repro/internal/model"
	"repro/internal/schema"
)

// ROWA is Read-One-Write-All: a logical read touches exactly one copy
// (preferring the local one) and a logical write must pre-write every copy.
// ROWA minimizes message traffic for read-heavy workloads but its write
// availability collapses as soon as any copy site is down — the contrast
// experiments E2/E5/E7 measure against QC.
type ROWA struct{}

// Name implements Protocol.
func (ROWA) Name() string { return "rowa" }

// Read implements Protocol: try copies in preference order, one round of
// one copy each, until one responds. A CC rejection aborts the transaction
// immediately (the remote scheduler has doomed it); unreachable copies are
// skipped.
func (ROWA) Read(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta) (int64, error) {
	var lastErr error
	op := CopyOp{Kind: model.OpRead, Item: meta.Item}
	for _, site := range preferredOrder(acc, meta) {
		r := round(ctx, acc, sess, []model.SiteID{site}, op)[0]
		if r.Err == nil {
			return r.Value, nil
		}
		if isCC(r.Err) {
			return 0, r.Err
		}
		lastErr = r.Err
	}
	if lastErr == nil {
		return 0, model.Abortf(model.AbortRCP, "rowa: item %s has no copies", meta.Item)
	}
	return 0, model.Abortf(model.AbortRCP, "rowa: no copy of %s reachable: %v", meta.Item, lastErr)
}

// Write implements Protocol: pre-write ALL copies in one round. Any
// unreachable copy aborts with cause RCP (the ROWA availability weakness);
// any CC rejection propagates. The install version is max(version)+1 over
// all copies.
func (ROWA) Write(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, value int64) error {
	sites, ver, err := writeAll(ctx, "rowa: write-all", acc, sess, meta, CopyOp{Kind: model.OpWrite, Item: meta.Item, Value: value})
	if err != nil {
		return err
	}
	rec := model.WriteRecord{Item: meta.Item, Value: value, Version: ver}
	for _, site := range sites {
		sess.RecordWrite(site, rec)
	}
	return nil
}

// Add implements Protocol: blind adds pre-write all copies, exactly like
// ROWA writes.
func (ROWA) Add(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, delta int64) error {
	return addAll(ctx, "rowa", acc, sess, meta, delta)
}
