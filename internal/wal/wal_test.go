package wal

import (
	"os"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func sampleRecord(seq uint64) Record {
	return Record{
		Type:         RecPrepared,
		Tx:           model.TxID{Site: "S1", Seq: seq},
		TS:           model.Timestamp{Time: seq, Site: "S1"},
		Coordinator:  "S1",
		Participants: []model.SiteID{"S1", "S2"},
		Writes: []model.WriteRecord{
			{Item: "x", Value: int64(seq), Version: model.Version(seq)},
			{Item: "c", Value: 3, Version: model.Version(seq + 1), Delta: true},
		},
	}
}

func testLogBehaviour(t *testing.T, l Log) {
	t.Helper()
	recs := []Record{
		sampleRecord(1),
		{Type: RecDecision, Tx: model.TxID{Site: "S1", Seq: 1}, Commit: true},
		{Type: RecEnd, Tx: model.TxID{Site: "S1", Seq: 1}},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("ReadAll returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		got[i].LSN = 0 // position, not payload: LSN-aware logs stamp it on reads
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestMemoryLog(t *testing.T) {
	testLogBehaviour(t, NewMemory())
}

func TestSegmentedLog(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{})
	defer l.Close()
	testLogBehaviour(t, l)
}

func TestSegmentedLogSynced(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{Sync: true})
	defer l.Close()
	testLogBehaviour(t, l)
}

func TestMemoryLogCloseRejectsAppends(t *testing.T) {
	l := NewMemory()
	l.Append(sampleRecord(1))
	l.Close()
	if err := l.Append(sampleRecord(2)); err == nil {
		t.Error("append after close should fail")
	}
	// Reads still work: recovery reads the crashed site's log.
	recs, err := l.ReadAll()
	if err != nil || len(recs) != 1 {
		t.Errorf("ReadAll after close: %v, %d records", err, len(recs))
	}
	l.Reopen()
	if err := l.Append(sampleRecord(3)); err != nil {
		t.Errorf("append after Reopen failed: %v", err)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
}

func TestMemoryLogIsolatesCallerSlices(t *testing.T) {
	l := NewMemory()
	writes := []model.WriteRecord{{Item: "x", Value: 1, Version: 1}}
	l.Append(Record{Type: RecPrepared, Writes: writes})
	writes[0].Value = 999
	recs, _ := l.ReadAll()
	if recs[0].Writes[0].Value != 1 {
		t.Error("log shares memory with caller's slice")
	}
}

func TestSegmentedSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	l.Append(sampleRecord(1))
	l.Append(sampleRecord(2))
	l.Close()

	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	recs, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Tx.Seq != 2 {
		t.Errorf("got %d records after reopen", len(recs))
	}
	// Appends continue after the existing tail.
	l2.Append(sampleRecord(3))
	recs, _ = l2.ReadAll()
	if len(recs) != 3 || recs[2].LSN != 3 {
		t.Errorf("got %d records after append, want 3 ending at LSN 3", len(recs))
	}
}

// newestSegment returns the path of the last segment file in dir.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	paths, err := listSegments(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("list segments: %v (%d found)", err, len(paths))
	}
	return paths[len(paths)-1]
}

// appendBytes simulates a crash mid-force: bytes of an unfinished frame at
// the end of a segment.
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentedGarbageTailIgnored(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	l.Append(sampleRecord(1))
	l.Close()

	appendBytes(t, newestSegment(t, dir), []byte{0x40, 0x00, 0x00}) // torn frame header

	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	recs, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Errorf("torn tail should be ignored; got %d records", len(recs))
	}
}

// The TestFileLog* checks below exercise the file-backed log, which is
// SegmentedLog in its default single-directory layout.

func TestFileLogAppendAfterCloseFails(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{})
	l.Close()
	if err := l.Append(sampleRecord(1)); err == nil {
		t.Error("append after close should fail")
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close should be a no-op, got %v", err)
	}
}

func TestFileLogGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{Sync: true})
	const appenders, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := l.Append(sampleRecord(uint64(g*1000 + i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	recs, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != appenders*perG {
		t.Errorf("got %d records, want %d", len(recs), appenders*perG)
	}
	flushes, records := l.BatchStats()
	if records != appenders*perG {
		t.Errorf("BatchStats records = %d, want %d", records, appenders*perG)
	}
	if flushes == 0 || flushes > records {
		t.Errorf("BatchStats flushes = %d out of range (records %d)", flushes, records)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Every record survives the close and is replayed in order.
	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	recs, err = l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != appenders*perG {
		t.Errorf("after reopen: %d records, want %d", len(recs), appenders*perG)
	}
}

func TestFileLogNoGroupCommit(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{NoGroupCommit: true})
	defer l.Close()
	testLogBehaviour(t, l)
	flushes, records := l.BatchStats()
	if flushes != records {
		t.Errorf("direct path should force per record: flushes %d, records %d", flushes, records)
	}
}

func TestAppendBatch(t *testing.T) {
	for name, open := range map[string]func(t *testing.T) Log{
		"memory": func(*testing.T) Log { return NewMemory() },
		"file":   func(t *testing.T) Log { return openSeg(t, t.TempDir(), SegmentOptions{}) },
	} {
		t.Run(name, func(t *testing.T) {
			l := open(t)
			defer l.Close()
			if err := l.AppendBatch(nil); err != nil {
				t.Errorf("empty batch: %v", err)
			}
			batch := []Record{sampleRecord(1), sampleRecord(2), sampleRecord(3)}
			if err := l.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			recs, err := l.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				recs[i].LSN = 0
			}
			if len(recs) != 3 || !reflect.DeepEqual(recs, batch) {
				t.Errorf("ReadAll after AppendBatch: got %d records", len(recs))
			}
			bs, ok := l.(BatchStats)
			if !ok {
				t.Fatal("log should expose BatchStats")
			}
			flushes, records := bs.BatchStats()
			if flushes != 1 || records != 3 {
				t.Errorf("BatchStats = (%d, %d), want (1, 3)", flushes, records)
			}
		})
	}
}

// TestSegmentedTornBatchTailRecovery simulates a crash mid-way through a
// group-commit batch flush: the final record is torn, and replay must
// return every record completely written before the tear.
func TestSegmentedTornBatchTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	if err := l.Append(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]Record{sampleRecord(2), sampleRecord(3), sampleRecord(4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the batch: chop the tail mid-way through the last record's frame.
	path := newestSegment(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-17); err != nil {
		t.Fatal(err)
	}

	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	recs, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("torn batch tail: got %d records, want 3", len(recs))
	}
	for i, want := range []uint64{1, 2, 3} {
		if recs[i].Tx.Seq != want {
			t.Errorf("record %d: seq %d, want %d", i, recs[i].Tx.Seq, want)
		}
	}
}

// TestSegmentedReopenTruncatesTornTail checks that opening a log with a
// torn tail removes the tear before new appends: otherwise records written
// after the garbage would be stranded beyond replay's stop-at-tear horizon
// and silently lost by the next recovery.
func TestSegmentedReopenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	if err := l.Append(sampleRecord(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	appendBytes(t, newestSegment(t, dir), []byte{0x40, 0x00, 0x00, 0x00, 0x12}) // crash mid-force

	l2 := openSeg(t, dir, SegmentOptions{})
	if err := l2.Append(sampleRecord(2)); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	l3 := openSeg(t, dir, SegmentOptions{})
	defer l3.Close()
	recs, err := l3.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Tx.Seq != 1 || recs[1].Tx.Seq != 2 {
		t.Fatalf("post-tear append lost: got %d records %+v", len(recs), recs)
	}
}

// TestSegmentedOpenDropsPartialFinalFrame: a final frame missing only its
// last payload byte was never acknowledged (the force writes whole frames),
// so open must drop it rather than let the next append land behind it.
func TestSegmentedOpenDropsPartialFinalFrame(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	l.Append(sampleRecord(1))
	l.Close()

	path := newestSegment(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := b[segHeaderSize:]
	// Duplicate the record's frame without its final byte: torn.
	appendBytes(t, path, frame[:len(frame)-1])

	l2 := openSeg(t, dir, SegmentOptions{})
	if err := l2.Append(sampleRecord(2)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3 := openSeg(t, dir, SegmentOptions{})
	defer l3.Close()
	recs, err := l3.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Tx.Seq != 1 || recs[1].Tx.Seq != 2 {
		t.Fatalf("got %d records %+v, want seqs 1,2", len(recs), recs)
	}
}

// TestSegmentedCloseDuringConcurrentAppends races Close against appenders:
// every append that reported success must be durable across a reopen.
func TestSegmentedCloseDuringConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openSeg(t, dir, SegmentOptions{})
	var wg sync.WaitGroup
	accepted := make(chan uint64, 128)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				seq := uint64(g*100 + i)
				if err := l.Append(sampleRecord(seq)); err != nil {
					return // closed under us: acceptable
				}
				accepted <- seq
			}
		}(g)
	}
	l.Close()
	wg.Wait()
	close(accepted)
	want := make(map[uint64]bool)
	for seq := range accepted {
		want[seq] = true
	}
	l2 := openSeg(t, dir, SegmentOptions{})
	defer l2.Close()
	recs, err := l2.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]bool)
	for _, r := range recs {
		got[r.Tx.Seq] = true
	}
	for seq := range want {
		if !got[seq] {
			t.Errorf("record %d acknowledged but lost at close", seq)
		}
	}
	if len(want) == 0 {
		t.Log("close won the race before any append; nothing to verify")
	}
}

func TestRecTypeString(t *testing.T) {
	if RecPrepared.String() != "prepared" || RecDecision.String() != "decision" || RecEnd.String() != "end" {
		t.Error("record type names wrong")
	}
	if RecType(77).String() == "" {
		t.Error("unknown record type should render something")
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{})
	defer l.Close()
	n := 0
	f := func(seq uint64, item string, val int64, commit bool) bool {
		r := Record{
			Type:   RecDecision,
			Tx:     model.TxID{Site: "S", Seq: seq},
			Writes: []model.WriteRecord{{Item: model.ItemID(item), Value: val}},
			Commit: commit,
		}
		if err := l.Append(r); err != nil {
			return false
		}
		n++
		recs, err := l.ReadAll()
		if err != nil || len(recs) != n {
			return false
		}
		got := recs[n-1]
		return got.Tx == r.Tx && got.Commit == r.Commit &&
			len(got.Writes) == 1 && got.Writes[0] == r.Writes[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
