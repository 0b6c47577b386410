package wire

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// TestMarshalUnmarshalRoundTrip round-trips a nested value through the
// gob encoding the cold-path bodies use (AppendGob/DecodeGob).
func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	in := PrepareReq{
		Tx:          model.TxID{Site: "S1", Seq: 7},
		TS:          model.Timestamp{Time: 9, Site: "S1"},
		Coordinator: "S1",
		Writes: []model.WriteRecord{
			{Item: "x", Value: 42, Version: 3},
			{Item: "y", Value: -1, Version: 1},
		},
		Participants: []model.SiteID{"S1", "S2", "S3"},
		ThreePhase:   true,
	}
	payload := AppendGob([]byte("prefix"), in)
	if string(payload[:6]) != "prefix" {
		t.Fatal("AppendGob clobbered the buffer it appends to")
	}
	var out PrepareReq
	if err := DecodeGob(payload[6:], &out); err != nil {
		t.Fatal(err)
	}
	if out.Tx != in.Tx || out.TS != in.TS || out.Coordinator != in.Coordinator ||
		len(out.Writes) != 2 || out.Writes[0] != in.Writes[0] || out.Writes[1] != in.Writes[1] ||
		len(out.Participants) != 3 || !out.ThreePhase {
		t.Errorf("round trip mismatch: %+v vs %+v", out, in)
	}
}

// TestMarshalRoundTripQuick round-trips random PreWriteReq values through
// the binary body codec.
func TestMarshalRoundTripQuick(t *testing.T) {
	f := func(tx uint64, item string, val int64, ver uint64, add bool) bool {
		in := PreWriteReq{
			Tx:    model.TxID{Site: "S", Seq: tx},
			Item:  model.ItemID(item),
			Value: val,
			TS:    model.Timestamp{Time: ver, Site: "S"},
			Add:   add,
		}
		var out PreWriteReq
		return out.DecodeFrom(in.AppendTo(nil)) == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUnmarshalError: garbage is a DecodeGob error, not a zero value.
func TestUnmarshalError(t *testing.T) {
	var out ReadCopyResp
	if err := DecodeGob([]byte{0x01, 0x02}, &out); err == nil {
		t.Error("garbage payload should fail to decode")
	}
}

func TestEnvelopeSize(t *testing.T) {
	env := &Envelope{From: "S1", To: "S2", Kind: KindPing, Corr: 1, Payload: make([]byte, 100)}
	if got := env.Size(); got <= 100 {
		t.Errorf("Size() = %d, want > payload length", got)
	}
	empty := &Envelope{From: "a", To: "b"}
	if empty.Size() <= 0 {
		t.Error("empty envelope should still have header size")
	}
}

func TestMsgKindString(t *testing.T) {
	if KindPrepare.String() != "Prepare" {
		t.Errorf("KindPrepare.String() = %q", KindPrepare.String())
	}
	if MsgKind(9999).String() != "MsgKind(9999)" {
		t.Errorf("unknown kind string = %q", MsgKind(9999).String())
	}
}

func TestErrorBodyPreservesAbortCause(t *testing.T) {
	eb := ErrorBody{Cause: model.AbortCC, Reason: "deadlock"}
	err := eb.Err()
	if model.CauseOf(err) != model.AbortCC {
		t.Errorf("cause lost across ErrorBody: %v", model.CauseOf(err))
	}

	generic := ErrorBody{Cause: model.AbortNone, Reason: "io failure"}
	if model.CauseOf(generic.Err()) == model.AbortCC {
		t.Error("generic error must not become a protocol abort")
	}
	if generic.Err() == nil {
		t.Error("non-abort ErrorBody must still be an error")
	}
}
