package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// filledBodies returns one representatively filled instance of every wire
// body type: every field set, every slice/map non-empty, so a dropped field
// in a hand-rolled encoder fails the round trip. The zero values ride along
// separately in TestBodyRoundTrip.
func filledBodies() []wire.Body {
	tx := model.TxID{Site: "S1", Seq: 42}
	ts := model.Timestamp{Time: 7_000_000, Site: "S2"}
	ballot := model.Ballot{N: 9, Site: "S3"}
	return []wire.Body{
		&wire.ErrorBody{Cause: model.AbortCC, Reason: "lock timeout on x"},
		&wire.OKBody{},
		&wire.RegisterSiteReq{Site: "S9", Addr: "127.0.0.1:7777"},
		&wire.GetCatalogReq{},
		&wire.PingReq{},
		&wire.ReadCopyReq{Tx: tx, TS: ts, Item: "item-x"},
		&wire.ReadCopyResp{Value: -12, Version: 3, Clock: 99, Incarnation: 4},
		&wire.PreWriteReq{Tx: tx, TS: ts, Item: "item-y", Value: 1 << 40, Add: true},
		&wire.PreWriteResp{Version: 8, Clock: 100, Incarnation: 5},
		&wire.ReleaseTxReq{Tx: tx},
		&wire.PrepareReq{
			Tx: tx, TS: ts, Coordinator: "S1",
			Writes: []model.WriteRecord{
				{Item: "a", Value: 1, Version: 2},
				{Item: "b", Value: -3, Version: 4, Delta: true},
			},
			Participants:  []model.SiteID{"S1", "S2", "S3"},
			ThreePhase:    true,
			NoReadOnlyOpt: true,
			Epoch:         6,
			Voters:        []model.SiteID{"S1", "S3"},
			Incarnation:   2,
		},
		&wire.VoteResp{Yes: true, ReadOnly: true, Reason: "read-only participant"},
		&wire.PreCommitReq{Tx: tx},
		&wire.DecisionMsg{Tx: tx, Commit: true},
		&wire.AckMsg{Tx: tx},
		&wire.EndTxMsg{Tx: tx},
		&wire.GetEpochReq{},
		&wire.EpochResp{Epoch: 11},
		&wire.DecisionReq{Tx: tx, ThreePhase: true},
		&wire.DecisionResp{Known: true, Commit: true},
		&wire.TermStateReq{Tx: tx},
		&wire.TermStateResp{State: 3},
		&wire.TermQueryReq{Tx: tx, Ballot: ballot},
		&wire.TermQueryResp{Accepted: true, EA: ballot, State: 2, EB: model.Ballot{N: 8, Site: "S1"}, Decided: true, Commit: true},
		&wire.TermPreDecideReq{Tx: tx, Ballot: ballot, Commit: true},
		&wire.TermPreDecideResp{Accepted: true, Decided: true, Commit: true},
		&wire.SubmitTxReq{Ops: []model.Op{
			{Kind: model.OpRead, Item: "r"},
			{Kind: model.OpWrite, Item: "w", Value: -77},
			{Kind: model.OpAdd, Item: "a", Value: 13},
		}},
		&wire.SubmitTxResp{Outcome: model.Outcome{
			Tx: tx, Committed: true, Cause: model.AbortNone, LatencyNS: 123456,
			Reads:    map[model.ItemID]int64{"r1": 5, "r2": -6},
			HomeSite: "S1",
		}},
		// An aborted outcome: no reads, a cause, no home site.
		&wire.SubmitTxResp{Outcome: model.Outcome{Tx: tx, Cause: model.AbortCC, LatencyNS: 987}},
	}
}

// TestBodyRoundTrip round-trips every body — filled and zero — through the
// binary codec, which must reproduce the value exactly.
func TestBodyRoundTrip(t *testing.T) {
	bodies := filledBodies()
	for _, src := range filledBodies() {
		// Zero-value variant of the same concrete type.
		zero := reflect.New(reflect.TypeOf(src).Elem()).Interface().(wire.Body)
		bodies = append(bodies, zero)
	}
	for _, src := range bodies {
		typ := reflect.TypeOf(src).Elem().Name()

		enc := src.AppendTo(nil)
		if len(enc) == 0 {
			t.Fatalf("%s: empty binary encoding", typ)
		}
		viaBinary := reflect.New(reflect.TypeOf(src).Elem()).Interface().(wire.Body)
		if err := viaBinary.DecodeFrom(enc); err != nil {
			t.Fatalf("%s: binary decode: %v", typ, err)
		}
		if !reflect.DeepEqual(src, viaBinary) {
			t.Errorf("%s: binary round trip mismatch:\n src: %+v\n got: %+v", typ, src, viaBinary)
		}

	}
}

// TestBodyEncodingsAreCanonical re-encodes a decoded body and requires
// byte-identical output: decoders and encoders agree on one canonical form
// (sorted map keys, minimal uvarints), which the fuzzer leans on.
func TestBodyEncodingsAreCanonical(t *testing.T) {
	for _, src := range filledBodies() {
		typ := reflect.TypeOf(src).Elem().Name()
		enc := src.AppendTo(nil)
		dec := reflect.New(reflect.TypeOf(src).Elem()).Interface().(wire.Body)
		if err := dec.DecodeFrom(enc); err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if re := dec.AppendTo(nil); !bytes.Equal(enc, re) {
			t.Errorf("%s: re-encoding differs from original encoding", typ)
		}
	}
}

// TestDecodeTruncationsNeverPanic feeds every strict prefix of every valid
// encoding to the decoder: each must error or succeed, never panic, and
// never read past its input.
func TestDecodeTruncationsNeverPanic(t *testing.T) {
	for _, src := range filledBodies() {
		enc := src.AppendTo(nil)
		for cut := 0; cut < len(enc); cut++ {
			dec := reflect.New(reflect.TypeOf(src).Elem()).Interface().(wire.Body)
			_ = dec.DecodeFrom(enc[:cut]) //nolint:errcheck // must not panic; error expected
		}
	}
}

// TestNewBodyCoversEveryKind asserts the registry resolves a constructor
// for each (kind, reply) pair the round-trip table exercises.
func TestNewBodyCoversEveryKind(t *testing.T) {
	kinds := wire.RegisteredBodyKinds()
	if len(kinds) == 0 {
		t.Fatal("no registered body kinds")
	}
	for _, k := range kinds {
		body, ok := wire.NewBody(k.Kind, k.Reply)
		if !ok || body == nil {
			t.Errorf("NewBody(%v, %v) failed", k.Kind, k.Reply)
		}
	}
	if _, ok := wire.NewBody(wire.MsgKind(200), false); ok {
		t.Error("NewBody invented a constructor for an unknown kind")
	}
}

// FuzzBodyDecode drives arbitrary bytes through every registered body
// decoder. Invariants: never panic; on success, re-encoding the decoded
// value yields a canonical form that survives its own round trip.
func FuzzBodyDecode(f *testing.F) {
	kinds := wire.RegisteredBodyKinds()
	for i, src := range filledBodies() {
		f.Add(uint8(i), true, src.AppendTo(nil))
	}
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(3), false, []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, sel uint8, reply bool, payload []byte) {
		k := kinds[int(sel)%len(kinds)]
		body, ok := wire.NewBody(k.Kind, k.Reply)
		if !ok {
			t.Fatalf("registered kind %v/%v has no constructor", k.Kind, k.Reply)
		}
		if err := body.DecodeFrom(payload); err != nil {
			return
		}
		canonical := body.AppendTo(nil)
		again, _ := wire.NewBody(k.Kind, k.Reply)
		if err := again.DecodeFrom(canonical); err != nil {
			t.Fatalf("%T: canonical form failed to decode: %v", body, err)
		}
		if re := again.AppendTo(nil); !bytes.Equal(canonical, re) {
			t.Fatalf("%T: canonical form is not a fixed point", body)
		}
		_ = reply
	})
}

// TestHotPathEncodeAllocsZero pins the transport's per-envelope encode cost:
// appending a hot-path body into a reused buffer must not allocate. (The
// benchmark baseline records 0 allocs/op for these, but a zero baseline
// cannot gate a regression, so the bound lives here.)
func TestHotPathEncodeAllocsZero(t *testing.T) {
	tx := model.TxID{Site: "S1", Seq: 42}
	ts := model.Timestamp{Time: 7_000_000, Site: "S2"}
	for _, body := range []wire.Body{
		&wire.ReadCopyReq{Tx: tx, TS: ts, Item: "item-x"},
		&wire.ReadCopyResp{Value: -12, Version: 3, Clock: 99, Incarnation: 4},
		&wire.PreWriteReq{Tx: tx, TS: ts, Item: "item-y", Value: 1 << 40, Add: true},
		&wire.PreWriteResp{Version: 8, Clock: 100, Incarnation: 5},
		&wire.PrepareReq{
			Tx: tx, TS: ts, Coordinator: "S1",
			Writes:       []model.WriteRecord{{Item: "a", Value: 1, Version: 2}, {Item: "b", Value: -3, Version: 4, Delta: true}},
			Participants: []model.SiteID{"S1", "S2", "S3"},
			ThreePhase:   true, Epoch: 6,
			Voters: []model.SiteID{"S1", "S2", "S3"}, Incarnation: 2,
		},
		&wire.VoteResp{Yes: true, Reason: "ok"},
		&wire.DecisionMsg{Tx: tx, Commit: true},
		&wire.AckMsg{Tx: tx},
	} {
		buf := body.AppendTo(nil) // size the buffer once
		if allocs := testing.AllocsPerRun(100, func() { buf = body.AppendTo(buf[:0]) }); allocs != 0 {
			t.Errorf("%T: AppendTo into a reused buffer allocates %.1f times", body, allocs)
		}
	}
}
