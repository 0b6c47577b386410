package site

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/simnet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestSiteCheckpointBoundsRecovery is the acceptance scenario end to end on
// a live cluster (in-memory WAL, as under the simulator): after checkpoints
// the retained log shrinks, and a crash/recover cycle replays strictly
// fewer records than were ever appended while preserving committed state.
func TestSiteCheckpointBoundsRecovery(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	a := c.sites["A"]
	ctx := context.Background()

	write := func(val int64) {
		out := a.Execute(ctx, []model.Op{model.Write("x", val)})
		if !out.Committed {
			t.Fatalf("write did not commit: %+v", out)
		}
	}
	for v := int64(1); v <= 20; v++ {
		write(v)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for v := int64(21); v <= 40; v++ {
		write(v)
	}
	ml := a.log.(*wal.MemoryLog)
	sizeBefore := ml.SizeBytes()
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := ml.SizeBytes(); after >= sizeBefore {
		t.Errorf("retained WAL did not shrink across checkpoint: %d -> %d", sizeBefore, after)
	}
	cs := a.CheckpointStats()
	if cs.Checkpoints != 2 || cs.SegmentsCompacted == 0 {
		t.Fatalf("checkpoint stats = %+v", cs)
	}

	_, appended := ml.BatchStats() // cumulative records ever appended
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	stats := a.Stats()
	if stats.RecoveryRecords >= appended {
		t.Errorf("recovery replayed %d records, want strictly fewer than the %d appended", stats.RecoveryRecords, appended)
	}
	if stats.RecoveryRecords == 0 {
		t.Error("recovery replayed nothing; the tail after the horizon must replay")
	}

	out := a.Execute(ctx, []model.Op{model.Read("x")})
	if !out.Committed || out.Reads["x"] != 40 {
		t.Fatalf("post-recovery read = %+v, want x=40", out)
	}
	// The recovered site keeps processing and checkpointing.
	write(41)
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestSiteInDoubtSurvivesCheckpointAndCompaction: a participant holding a
// Prepared-but-undecided transaction checkpoints twice (compacting
// everything else below the horizon), crashes and recovers — the in-doubt
// transaction must still surface for termination, and its write set must
// still be installable when the decision finally arrives.
func TestSiteInDoubtSurvivesCheckpointAndCompaction(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	ctx := context.Background()

	// An in-doubt transaction from an unreachable coordinator "Z": prepared
	// here, never decided, resolver cannot learn an outcome.
	orphan := model.TxID{Site: "Z", Seq: 77}
	vote := a.part.HandlePrepare(wire.PrepareReq{
		Tx:           orphan,
		TS:           model.Timestamp{Time: 1, Site: "Z"},
		Coordinator:  "Z",
		Participants: []model.SiteID{"A", "Z"},
		Writes:       []model.WriteRecord{{Item: "z", Value: 777, Version: 100}},
	})
	if !vote.Yes {
		t.Fatalf("prepare rejected: %+v", vote)
	}

	for v := int64(1); v <= 15; v++ {
		if out := a.Execute(ctx, []model.Op{model.Write("x", v)}); !out.Committed {
			t.Fatalf("write did not commit: %+v", out)
		}
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for v := int64(16); v <= 30; v++ {
		if out := a.Execute(ctx, []model.Op{model.Write("x", v)}); !out.Committed {
			t.Fatalf("write did not commit: %+v", out)
		}
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cs := a.CheckpointStats(); cs.SegmentsCompacted == 0 {
		t.Fatal("nothing compacted; the test would be vacuous")
	}

	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := a.InDoubtCount(); n != 1 {
		t.Fatalf("in-doubt after recovery = %d, want 1", n)
	}
	// The write set survived compaction with the pinned Prepared record:
	// delivering the decision installs it.
	if err := a.part.HandleDecision(orphan, true); err != nil {
		t.Fatal(err)
	}
	if c, ok := a.Store().Get("z"); !ok || c.Value != 777 {
		t.Fatalf("late decision install = %+v, want 777", c)
	}
	if n := a.InDoubtCount(); n != 0 {
		t.Errorf("in-doubt after decision = %d, want 0", n)
	}
}

// TestSiteIntervalCheckpointTrigger exercises the automatic trigger loop.
func TestSiteIntervalCheckpointTrigger(t *testing.T) {
	net := simnet.New(simnet.Config{})
	cat := schema.NewCatalog()
	cat.Sites["A"] = schema.SiteInfo{ID: "A"}
	cat.ReplicateEverywhere("x", 0)
	st, err := New(Config{
		ID: "A", Net: net, Catalog: cat,
		Checkpoint: schema.CheckpointPolicy{Interval: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if out := st.Execute(context.Background(), []model.Op{model.Write("x", 9)}); !out.Committed {
		t.Fatalf("write did not commit: %+v", out)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if st.CheckpointStats().Checkpoints >= 1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("interval trigger never checkpointed: %+v", st.CheckpointStats())
}

// TestSiteRecoverySkipsSnapshotDecidedTx is the regression test for a
// subtle recovery bug: transaction T's Prepared record survives compaction
// only because it shares a retained segment with a genuine orphan's pin,
// while T's Decision record was compacted away — so from the retained
// records alone T looks in-doubt. The snapshot's decision table knows the
// outcome; recovery must NOT re-lock T's write set.
//
// Sparse rewriting (record-granular pinning) normally sheds the decided
// transaction's records, but a rewrite that fails keeps the pinned segment
// whole while compaction still deletes the later segments. The test builds
// exactly that: both Prepared records seeded in one segment whose sparse
// rewrite is made to fail.
func TestSiteRecoverySkipsSnapshotDecidedTx(t *testing.T) {
	dir := t.TempDir()
	orphan := model.TxID{Site: "Z", Seq: 1}
	decided := model.TxID{Site: "Z", Seq: 2}

	// A segment holding just the two Prepared records.
	fl, err := wal.OpenSegmented(dir, wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seeded := []struct {
		tx   model.TxID
		item model.ItemID
		val  int64
	}{{orphan, "y", 111}, {decided, "z", 555}}
	for _, sr := range seeded {
		if err := fl.Append(wal.Record{
			Type: wal.RecPrepared, Tx: sr.tx,
			TS:          model.Timestamp{Time: sr.tx.Seq, Site: "Z"},
			Coordinator: "Z", Participants: []model.SiteID{"A", "Z"},
			Writes: []model.WriteRecord{{Item: sr.item, Value: sr.val, Version: 50}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	seeded0, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(seeded0) != 1 {
		t.Fatalf("seeded segments = %v (%v), want one", seeded0, err)
	}

	// Tiny segments so the Decision record's binary segment seals (and
	// compacts) quickly.
	l, err := wal.OpenSegmented(dir, wal.SegmentOptions{SegmentBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Config{})
	cat := schema.NewCatalog()
	cat.Sites["A"] = schema.SiteInfo{ID: "A"}
	cat.ReplicateEverywhere("x", 0)
	cat.ReplicateEverywhere("y", 0)
	cat.ReplicateEverywhere("z", 0)
	// New replays the log: both transactions come back in-doubt.
	st, err := New(Config{ID: "A", Net: net, Catalog: cat, Log: l})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()

	if n := st.InDoubtCount(); n != 2 {
		t.Fatalf("in-doubt after seeded open = %d, want 2", n)
	}
	// Block the seeded segment's sparse-rewrite temp path with a directory:
	// the rewrite fails and compaction keeps the segment whole.
	if err := os.Mkdir(seeded0[0]+".seg-rewrite", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.part.HandleDecision(decided, true); err != nil {
		t.Fatal(err)
	}

	for v := int64(1); v <= 12; v++ {
		if out := st.Execute(ctx, []model.Op{model.Write("x", v)}); !out.Committed {
			t.Fatalf("write: %+v", out)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for v := int64(13); v <= 24; v++ {
		if out := st.Execute(ctx, []model.Op{model.Write("x", v)}); !out.Committed {
			t.Fatalf("write: %+v", out)
		}
	}
	// The snapshot is saved; only the compaction step reports the failed
	// rewrite.
	if err := st.Checkpoint(); err == nil {
		t.Fatal("checkpoint over a blocked sparse rewrite reported no error")
	}

	// Precondition for a non-vacuous test: the decided transaction's
	// Prepared record is retained (whole-kept segment, pinned by the
	// orphan) but its Decision record was compacted away.
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sawPrep, sawDec := false, false
	for _, r := range recs {
		if r.Tx == decided {
			switch r.Type {
			case wal.RecPrepared:
				sawPrep = true
			case wal.RecDecision:
				sawDec = true
			}
		}
	}
	if !sawPrep || sawDec {
		t.Fatalf("layout precondition failed: prepared retained=%v decision retained=%v (tune SegmentBytes)", sawPrep, sawDec)
	}

	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	// Only the genuine orphan is in doubt; the snapshot-decided transaction
	// must not have been re-locked (a write to z would otherwise block on
	// its reinstated exclusive lock until the resolver clears it).
	if n := st.InDoubtCount(); n != 1 {
		t.Fatalf("in-doubt after recovery = %d, want 1 (the orphan only)", n)
	}
	if c, _ := st.Store().Get("z"); c.Value != 555 {
		t.Fatalf("decided transaction's effect lost: z = %+v, want 555", c)
	}
}

// TestSiteDeltaCheckpointsAndRecovery drives a site through an incremental
// (delta) checkpoint chain and a crash/recover cycle: deltas are recorded,
// the composed chain recovers the committed state, and the recovered site
// keeps checkpointing.
func TestSiteDeltaCheckpointsAndRecovery(t *testing.T) {
	net := simnet.New(simnet.Config{})
	cat := schema.NewCatalog()
	cat.Sites["A"] = schema.SiteInfo{ID: "A"}
	cat.ReplicateEverywhere("x", 0)
	cat.ReplicateEverywhere("y", 0)
	st, err := New(Config{
		ID: "A", Net: net, Catalog: cat,
		Checkpoint: schema.CheckpointPolicy{DeltaMax: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()

	write := func(item model.ItemID, val int64) {
		t.Helper()
		if out := st.Execute(ctx, []model.Op{model.Write(item, val)}); !out.Committed {
			t.Fatalf("write did not commit: %+v", out)
		}
	}
	for v := int64(1); v <= 10; v++ {
		write("x", v)
	}
	if err := st.Checkpoint(); err != nil { // full
		t.Fatal(err)
	}
	for v := int64(11); v <= 20; v++ {
		write("x", v)
	}
	write("y", 5)
	if err := st.Checkpoint(); err != nil { // delta
		t.Fatal(err)
	}
	cs := st.CheckpointStats()
	if cs.Checkpoints != 2 || cs.Deltas != 1 {
		t.Fatalf("checkpoint stats = %+v, want 2 checkpoints / 1 delta", cs)
	}
	if cs.LastPause <= 0 || cs.LastDirtyShards <= 0 {
		t.Errorf("pause/dirty gauges not recorded: %+v", cs)
	}

	st.Crash()
	if err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	out := st.Execute(ctx, []model.Op{model.Read("x"), model.Read("y")})
	if !out.Committed || out.Reads["x"] != 20 || out.Reads["y"] != 5 {
		t.Fatalf("post-recovery reads = %+v, want x=20 y=5", out)
	}
	// The recovered site's first checkpoint restarts the chain with a full
	// snapshot (the manager's epoch bookkeeping is rebuilt).
	write("x", 21)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cs := st.CheckpointStats(); cs.Deltas != 0 {
		t.Errorf("first post-recovery checkpoint must be full: %+v", cs)
	}
}

// TestSiteDecisionRetirementEndToEnd: a committed transaction whose cohort
// fully acknowledged (RecEnd) stops appearing in the decision table and in
// new snapshots, and stays retired across recovery; a decision without an
// end record survives both.
func TestSiteDecisionRetirementEndToEnd(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	a := c.sites["A"]
	ctx := context.Background()

	// A normally committed transaction: decision + RecEnd on the
	// coordinator; the table must not retain it.
	if out := a.Execute(ctx, []model.Op{model.Write("x", 7)}); !out.Committed {
		t.Fatalf("write did not commit: %+v", out)
	}
	if n := a.part.DecisionCount(); n != 0 {
		t.Fatalf("decision table after fully acked commit = %d entries, want 0 (retired)", n)
	}
	// The end broadcast reaches the rest of the cohort too (best-effort
	// cast over the simulated network): participant B's entry retires.
	bPart := c.sites["B"].part
	deadline := time.Now().Add(2 * time.Second)
	for bPart.DecisionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("participant decision table never retired: %d entries", bPart.DecisionCount())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An unacknowledged decision (delivered from a peer coordinator, no end
	// record): must stay.
	open := model.TxID{Site: "Z", Seq: 1}
	if err := a.part.HandleDecision(open, false); err != nil {
		t.Fatal(err)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a.Crash()
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if commit, known := a.part.Decision(open); !known || commit {
		t.Error("unacknowledged decision lost across checkpoint+recovery")
	}
	if n := a.part.DecisionCount(); n != 1 {
		t.Errorf("decision table after recovery = %d entries, want only the open one", n)
	}
}

// TestSiteCatalogTriggerSurvivesLocalCaptureKnobs guards the policy merge:
// a site with only capture knobs set locally (rainbow-site's
// -checkpoint-delta-max default, no local trigger) must still arm the
// catalog's automatic trigger rather than silently dropping it.
func TestSiteCatalogTriggerSurvivesLocalCaptureKnobs(t *testing.T) {
	net := simnet.New(simnet.Config{})
	cat := schema.NewCatalog()
	cat.Sites["A"] = schema.SiteInfo{ID: "A"}
	cat.ReplicateEverywhere("x", 0)
	cat.Checkpoint = schema.CheckpointPolicy{Interval: 30 * time.Millisecond}
	st, err := New(Config{
		ID: "A", Net: net, Catalog: cat,
		Checkpoint: schema.CheckpointPolicy{DeltaMax: 8}, // no local trigger
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if out := st.Execute(context.Background(), []model.Op{model.Write("x", 9)}); !out.Committed {
		t.Fatalf("write did not commit: %+v", out)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if st.CheckpointStats().Checkpoints >= 1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("catalog interval trigger dropped by local capture knobs: %+v", st.CheckpointStats())
}
