package rcp

import (
	"context"
	"testing"
	"time"

	"repro/internal/model"
)

// elapsed runs f and returns how long it took.
func elapsed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// TestQCSilentCopyRepickedAfterOneTimeout: a remote copy that never
// answers costs one OpTimeout, then QC re-picks another vote-holder and
// completes the quorum. The silent leg is forgotten and stays a stray.
func TestQCSilentCopyRepickedAfterOneTimeout(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.silent["S2"] = true
	s := sess()
	var err error
	d := elapsed(func() { _, err = (QC{}).Read(context.Background(), f, s, meta3()) })
	if err != nil {
		t.Fatalf("QC read around a silent copy: %v", err)
	}
	if d < fakeOpTimeout || d > 10*fakeOpTimeout {
		t.Errorf("read took %v; want about one op timeout (%v)", d, fakeOpTimeout)
	}
	if f.perSite["S3"] != 1 || f.forgotten != 1 {
		t.Errorf("per-site ops %v, forgotten %d; want S3 re-picked and the silent leg forgotten", f.perSite, f.forgotten)
	}
	if strays := s.Strays(); len(strays) != 1 || strays[0] != "S2" {
		t.Errorf("strays = %v; want [S2] (attempted, never answered)", strays)
	}
}

// TestWriteAllSilentCopyAbortsRCP: ROWA writes and both protocols' blind
// adds need every copy, so a silent one aborts the operation with cause
// rcp after one OpTimeout.
func TestWriteAllSilentCopyAbortsRCP(t *testing.T) {
	for name, run := range map[string]func(*fakeAccess) error{
		"rowa write": func(f *fakeAccess) error { return (ROWA{}).Write(context.Background(), f, sess(), meta3(), 1) },
		"rowa add":   func(f *fakeAccess) error { return (ROWA{}).Add(context.Background(), f, sess(), meta3(), 1) },
		"qc add":     func(f *fakeAccess) error { return (QC{}).Add(context.Background(), f, sess(), meta3(), 1) },
	} {
		f := newFake("S1", "S1", "S2", "S3")
		f.silent["S3"] = true
		var err error
		d := elapsed(func() { err = run(f) })
		if model.CauseOf(err) != model.AbortRCP {
			t.Errorf("%s with a silent copy: %v; want cause rcp", name, err)
		}
		if d < fakeOpTimeout || d > 10*fakeOpTimeout {
			t.Errorf("%s took %v; want about one op timeout (%v)", name, d, fakeOpTimeout)
		}
	}
}

// TestCCErrorOnAnyLegDooms: a CC rejection on any leg — local or remote —
// aborts with cause ccp and marks the rejecting site touched (it may hold
// CC state to release).
func TestCCErrorOnAnyLegDooms(t *testing.T) {
	for _, rejecting := range []model.SiteID{"S1", "S3"} {
		f := newFake("S1", "S1", "S2", "S3")
		f.ccReject[rejecting] = true
		s := sess()
		if err := (QC{}).Add(context.Background(), f, s, meta3(), 1); model.CauseOf(err) != model.AbortCC {
			t.Fatalf("reject at %s: %v; want cause ccp", rejecting, err)
		}
		touched := false
		for _, p := range s.Participants() {
			touched = touched || p == rejecting
		}
		if !touched {
			t.Errorf("reject at %s: participants %v; want the rejecting site touched", rejecting, s.Participants())
		}
	}
}

// TestLocalCCErrorSkipsTheWait: once the home site's own leg is rejected
// the transaction is doomed, so the round does not wait for its remote
// legs — the silent one and the one that answered alike; it forgets both.
func TestLocalCCErrorSkipsTheWait(t *testing.T) {
	f := newFake("S1", "S1", "S2", "S3")
	f.ccReject["S1"] = true
	f.silent["S2"] = true
	var err error
	d := elapsed(func() { err = (ROWA{}).Write(context.Background(), f, sess(), meta3(), 1) })
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("write: %v; want cause ccp", err)
	}
	if d >= fakeOpTimeout {
		t.Errorf("doomed round waited %v for a silent leg", d)
	}
	if f.forgotten != 2 {
		t.Errorf("forgotten = %d; want both remote legs forgotten", f.forgotten)
	}
}
