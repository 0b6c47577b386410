package wal

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/model"
)

// termRecords is a 3PC termination history: a prepared record carrying the
// electorate, an election promise, and an accepted pre-decision.
func termRecords() []Record {
	return []Record{
		{
			Type:         RecPrepared,
			Tx:           model.TxID{Site: "S1", Seq: 7},
			TS:           model.Timestamp{Time: 7, Site: "S1"},
			Coordinator:  "S1",
			Participants: []model.SiteID{"S1", "S2", "S3"},
			Voters:       []model.SiteID{"S1", "S2"},
			ThreePhase:   true,
			Writes:       []model.WriteRecord{{Item: "x", Value: 3, Version: 2}},
		},
		{Type: RecElect, Tx: model.TxID{Site: "S1", Seq: 7}, Ballot: model.Ballot{N: 2, Site: "S3"}},
		{Type: RecPreDecide, Tx: model.TxID{Site: "S1", Seq: 7}, Commit: true, Ballot: model.Ballot{N: 2, Site: "S3"}},
	}
}

// TestTermRecordsRoundTrip: the v2 fields (Voters, Ballot) survive a
// segmented log, once per record codec (binary is the only one left).
func TestTermRecordsRoundTrip(t *testing.T) {
	t.Run("binary", testTermRecordsRoundTrip)
}

func testTermRecordsRoundTrip(t *testing.T) {
	l := openSeg(t, t.TempDir(), SegmentOptions{})
	defer l.Close()
	want := termRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		got[i].LSN = 0
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// appendV1 encodes a record exactly as binary version 1 did (no Voters, no
// Ballot) — the back-compat fixture.
func appendV1(buf []byte, r *Record) []byte {
	buf = append(buf, 1, byte(r.Type))
	var flags byte
	if r.ThreePhase {
		flags |= 1
	}
	if r.Commit {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = appendString(buf, string(r.Tx.Site))
	buf = binary.AppendUvarint(buf, r.Tx.Seq)
	buf = binary.AppendUvarint(buf, r.TS.Time)
	buf = appendString(buf, string(r.TS.Site))
	buf = appendString(buf, string(r.Coordinator))
	buf = binary.AppendUvarint(buf, uint64(len(r.Participants)))
	for _, p := range r.Participants {
		buf = appendString(buf, string(p))
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Writes)))
	for _, w := range r.Writes {
		buf = appendString(buf, string(w.Item))
		buf = binary.AppendVarint(buf, w.Value)
		buf = binary.AppendUvarint(buf, uint64(w.Version))
	}
	return binary.AppendUvarint(buf, r.Horizon)
}

// appendV2 encodes a record exactly as binary version 2 did (Voters and
// Ballot, but no per-write delta flags) — the back-compat fixture.
func appendV2(buf []byte, r *Record) []byte {
	buf = appendV1(buf, r)
	buf[0] = 2
	buf = binary.AppendUvarint(buf, uint64(len(r.Voters)))
	for _, p := range r.Voters {
		buf = appendString(buf, string(p))
	}
	buf = binary.AppendUvarint(buf, r.Ballot.N)
	return appendString(buf, string(r.Ballot.Site))
}

// TestBinaryCodecDecodesVersion2: logs written before commutative blind
// adds (version-2 records) still decode, with every write absolute.
func TestBinaryCodecDecodesVersion2(t *testing.T) {
	want := Record{
		Type:         RecPrepared,
		Tx:           model.TxID{Site: "S2", Seq: 11},
		TS:           model.Timestamp{Time: 11, Site: "S2"},
		Coordinator:  "S2",
		Participants: []model.SiteID{"S1", "S2"},
		Writes: []model.WriteRecord{
			{Item: "y", Value: -4, Version: 5},
			{Item: "z", Value: 8, Version: 6},
		},
		Voters: []model.SiteID{"S1", "S2"},
		Ballot: model.Ballot{N: 3, Site: "S1"},
	}
	payload := appendV2(nil, &want)
	got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("v2 decode: got %+v, want %+v", got, want)
	}
	for i, w := range got.Writes {
		if w.Delta {
			t.Errorf("v2 decode invented a delta flag on write %d: %+v", i, w)
		}
	}
}

// TestBinaryCodecDecodesVersion1: logs written before quorum termination
// (version-1 records) still decode, with the new fields zero.
func TestBinaryCodecDecodesVersion1(t *testing.T) {
	want := Record{
		Type:         RecPrepared,
		Tx:           model.TxID{Site: "S1", Seq: 9},
		TS:           model.Timestamp{Time: 9, Site: "S1"},
		Coordinator:  "S1",
		Participants: []model.SiteID{"S1", "S2"},
		ThreePhase:   true,
		Writes:       []model.WriteRecord{{Item: "y", Value: -4, Version: 5}},
		Horizon:      3,
	}
	payload := appendV1(nil, &want)
	got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("v1 decode: got %+v, want %+v", got, want)
	}
	if got.Voters != nil || !got.Ballot.IsZero() {
		t.Errorf("v1 decode invented v2 fields: %+v", got)
	}
}

// TestCompactionPinsTermRecords: an in-doubt transaction's Elect/PreDecide
// records must survive compaction exactly like its Prepared record — a
// recovered member rejoins termination FROM them — and all of them go once
// the transaction is decided below the horizon.
func TestCompactionPinsTermRecords(t *testing.T) {
	l := NewMemory()
	tx := model.TxID{Site: "S1", Seq: 7}
	for _, r := range termRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated decided traffic pushes the horizon up.
	other := model.TxID{Site: "S2", Seq: 1}
	l.Append(Record{Type: RecPrepared, Tx: other, Writes: []model.WriteRecord{{Item: "z", Value: 1, Version: 1}}}) //nolint:errcheck
	l.Append(Record{Type: RecDecision, Tx: other, Commit: true})                                                   //nolint:errcheck
	horizon := l.DurableLSN() + 1

	if _, err := l.Compact(horizon); err != nil {
		t.Fatal(err)
	}
	recs, _ := l.ReadAll()
	var prepared, elect, predecide bool
	for _, r := range recs {
		if r.Tx != tx {
			continue
		}
		switch r.Type {
		case RecPrepared:
			prepared = true
		case RecElect:
			elect = true
		case RecPreDecide:
			predecide = true
		}
	}
	if !prepared || !elect || !predecide {
		t.Fatalf("compaction dropped in-doubt termination state: prepared=%v elect=%v predecide=%v (log %+v)",
			prepared, elect, predecide, recs)
	}

	// Decide + end: everything about tx is now compactable.
	l.Append(Record{Type: RecDecision, Tx: tx, Commit: true}) //nolint:errcheck
	l.Append(Record{Type: RecEnd, Tx: tx})                    //nolint:errcheck
	if _, err := l.Compact(l.DurableLSN() + 1); err != nil {
		t.Fatal(err)
	}
	recs, _ = l.ReadAll()
	for _, r := range recs {
		if r.Tx == tx {
			t.Fatalf("decided transaction's record survived compaction: %+v", r)
		}
	}
}
