package cc

import (
	"context"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/storage"
)

func tx(seq uint64) model.TxID    { return model.TxID{Site: "S", Seq: seq} }
func ts(t uint64) model.Timestamp { return model.Timestamp{Time: t, Site: "S"} }
func bg() context.Context         { return context.Background() }
func rec(item model.ItemID, v int64, ver model.Version) model.WriteRecord {
	return model.WriteRecord{Item: item, Value: v, Version: ver}
}

func newStore() *storage.Store {
	s := storage.New()
	s.Init(map[model.ItemID]int64{"x": 10, "y": 20, "z": 30})
	return s
}

// managers builds one of each CCP over a fresh store for conformance tests.
func managers(t *testing.T) map[string]Manager {
	t.Helper()
	out := make(map[string]Manager)
	for _, name := range Names() {
		m, err := New(name, newStore(), Options{LockTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = m
	}
	return out
}

func TestNewUnknownProtocol(t *testing.T) {
	if _, err := New("optimistic", newStore(), Options{}); err == nil {
		t.Error("unknown protocol should fail")
	}
}

func TestNewDefaultIs2PL(t *testing.T) {
	m, err := New("", newStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "2pl" {
		t.Errorf("default CCP = %s", m.Name())
	}
}

// --- Conformance suite: behaviours every CCP must share ---

func TestConformanceReadReturnsValue(t *testing.T) {
	for name, m := range managers(t) {
		v, ver, err := m.Read(bg(), tx(1), ts(1), "x")
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if v != 10 || ver != 0 {
			t.Errorf("%s: Read = %d v%d, want 10 v0", name, v, ver)
		}
		m.Abort(tx(1))
	}
}

func TestConformanceCommitInstallsWrite(t *testing.T) {
	for name, m := range managers(t) {
		if _, err := m.PreWrite(bg(), tx(1), ts(1), "x", 99); err != nil {
			t.Errorf("%s: prewrite: %v", name, err)
			continue
		}
		if err := m.Commit(tx(1), []model.WriteRecord{rec("x", 99, 1)}); err != nil {
			t.Errorf("%s: commit: %v", name, err)
			continue
		}
		v, ver, err := m.Read(bg(), tx(2), ts(2), "x")
		if err != nil || v != 99 || ver != 1 {
			t.Errorf("%s: read after commit = %d v%d (%v)", name, v, ver, err)
		}
		m.Abort(tx(2))
	}
}

func TestConformanceAbortDiscardsWrite(t *testing.T) {
	for name, m := range managers(t) {
		if _, err := m.PreWrite(bg(), tx(1), ts(1), "x", 99); err != nil {
			t.Errorf("%s: prewrite: %v", name, err)
			continue
		}
		m.Abort(tx(1))
		v, _, err := m.Read(bg(), tx(2), ts(2), "x")
		if err != nil || v != 10 {
			t.Errorf("%s: read after abort = %d (%v), want 10", name, v, err)
		}
		m.Abort(tx(2))
	}
}

func TestConformanceReadYourOwnIntent(t *testing.T) {
	for name, m := range managers(t) {
		if _, err := m.PreWrite(bg(), tx(1), ts(1), "x", 77); err != nil {
			t.Errorf("%s: prewrite: %v", name, err)
			continue
		}
		v, _, err := m.Read(bg(), tx(1), ts(1), "x")
		if err != nil || v != 77 {
			t.Errorf("%s: read-own-write = %d (%v), want 77", name, v, err)
		}
		m.Abort(tx(1))
	}
}

func TestConformanceUnknownItem(t *testing.T) {
	for name, m := range managers(t) {
		if _, _, err := m.Read(bg(), tx(1), ts(1), "ghost"); err == nil {
			t.Errorf("%s: read of unhosted item succeeded", name)
		}
		m.Abort(tx(1))
		if _, err := m.PreWrite(bg(), tx(2), ts(2), "ghost", 1); err == nil {
			t.Errorf("%s: prewrite of unhosted item succeeded", name)
		}
		m.Abort(tx(2))
	}
}

func TestConformanceDirtyReadPrevented(t *testing.T) {
	// While tx1 has an uncommitted pre-write on x, a conflicting read by a
	// later transaction must NOT observe the dirty value. 2PL blocks it;
	// TSO/MVTSO gate it behind the intent. Either way, once tx1 commits the
	// reader sees the committed value; a reader that gets aborted instead is
	// also acceptable for TSO-family managers (rejection, not dirty read).
	for name, m := range managers(t) {
		if _, err := m.PreWrite(bg(), tx(1), ts(1), "x", 55); err != nil {
			t.Fatalf("%s: prewrite: %v", name, err)
		}
		got := make(chan struct {
			v   int64
			err error
		}, 1)
		go func() {
			v, _, err := m.Read(bg(), tx(2), ts(2), "x")
			got <- struct {
				v   int64
				err error
			}{v, err}
		}()
		time.Sleep(20 * time.Millisecond)
		select {
		case r := <-got:
			if r.err == nil {
				t.Errorf("%s: reader returned %d before writer resolved", name, r.v)
			}
			continue
		default: // still blocked — correct
		}
		m.Commit(tx(1), []model.WriteRecord{rec("x", 55, 1)})
		r := <-got
		if r.err == nil && r.v != 55 {
			t.Errorf("%s: blocked reader saw %d, want 55", name, r.v)
		}
		m.Abort(tx(2))
	}
}

func TestConformanceReinstateBlocksConflicts(t *testing.T) {
	// After recovery reinstates an in-doubt transaction's write set, a
	// conflicting reader must not slip past it.
	for name, m := range managers(t) {
		if err := m.Reinstate(tx(1), ts(1), []model.WriteRecord{rec("x", 5, 1)}); err != nil {
			t.Fatalf("%s: reinstate: %v", name, err)
		}
		done := make(chan struct {
			v   int64
			err error
		}, 1)
		go func() {
			v, _, err := m.Read(bg(), tx(2), ts(2), "x")
			done <- struct {
				v   int64
				err error
			}{v, err}
		}()
		select {
		case r := <-done:
			if r.err == nil {
				t.Errorf("%s: read of in-doubt item returned %d", name, r.v)
			}
		case <-time.After(20 * time.Millisecond):
			// blocked — correct; resolve and confirm the reader completes
			m.Commit(tx(1), []model.WriteRecord{rec("x", 5, 1)})
			r := <-done
			if r.err == nil && r.v != 5 {
				t.Errorf("%s: reader after resolution saw %d, want 5", name, r.v)
			}
		}
		m.Abort(tx(2))
		m.Abort(tx(1))
	}
}

// --- 2PL-specific ---

// Test2PLConflictingWritersSerialize pins the detect policy: the second,
// younger writer must wait for the first (under wait-die it would abort).
func Test2PLConflictingWritersSerialize(t *testing.T) {
	m := NewTwoPL(newStore(), Options{LockTimeout: time.Second, Deadlock: lock.Detect})
	if _, err := m.PreWrite(bg(), tx(1), ts(1), "x", 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.PreWrite(bg(), tx(2), ts(2), "x", 2)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("second writer not blocked")
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 1, 1)})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(2), []model.WriteRecord{rec("x", 2, 2)})
	v, _, _ := m.Read(bg(), tx(3), ts(3), "x")
	if v != 2 {
		t.Errorf("final value = %d, want 2", v)
	}
}

// Test2PLDeadlockAborts exercises the detect policy's waits-for cycle.
func Test2PLDeadlockAborts(t *testing.T) {
	m := NewTwoPL(newStore(), Options{LockTimeout: time.Second, Deadlock: lock.Detect})
	if _, err := m.PreWrite(bg(), tx(1), ts(1), "x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PreWrite(bg(), tx(2), ts(2), "y", 2); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, err := m.PreWrite(bg(), tx(1), ts(1), "y", 1)
		first <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_, err := m.PreWrite(bg(), tx(2), ts(2), "x", 2)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("deadlock not CC-aborted: %v", err)
	}
	m.Abort(tx(2))
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	m.Abort(tx(1))
	if m.Stats().Deadlocks == 0 {
		t.Error("deadlock not counted")
	}
}

func Test2PLSharedReadersConcurrent(t *testing.T) {
	m := NewTwoPL(newStore(), Options{LockTimeout: time.Second})
	for i := uint64(1); i <= 5; i++ {
		if _, _, err := m.Read(bg(), tx(i), ts(i), "x"); err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		m.Abort(tx(i))
	}
	if s := m.Stats(); s.Reads != 5 {
		t.Errorf("Reads = %d", s.Reads)
	}
}

// --- TSO-specific ---

func TestTSOLateReadRejected(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	// tx at ts=10 writes x and commits: wts(x)=10.
	if _, err := m.PreWrite(bg(), tx(1), ts(10), "x", 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 1, 1)})
	// A read at ts=5 arrives too late.
	_, _, err := m.Read(bg(), tx(2), ts(5), "x")
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("late read not rejected: %v", err)
	}
	if m.Stats().Rejections != 1 {
		t.Errorf("Rejections = %d", m.Stats().Rejections)
	}
}

func TestTSOLateWriteRejected(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := m.Read(bg(), tx(1), ts(10), "x"); err != nil {
		t.Fatal(err) // rts(x)=10
	}
	_, err := m.PreWrite(bg(), tx(2), ts(5), "x", 1)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("late write not rejected: %v", err)
	}
}

func TestTSOReadWaitsForSmallerIntent(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, err := m.PreWrite(bg(), tx(1), ts(5), "x", 50); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct {
		v   int64
		err error
	}, 1)
	go func() {
		v, _, err := m.Read(bg(), tx(2), ts(10), "x")
		done <- struct {
			v   int64
			err error
		}{v, err}
	}()
	select {
	case <-done:
		t.Fatal("read at larger ts did not wait for pending smaller intent")
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 50, 1)})
	r := <-done
	if r.err != nil || r.v != 50 {
		t.Errorf("read = %d (%v), want 50", r.v, r.err)
	}
}

func TestTSOReadAtSmallerTsThanIntentProceeds(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, err := m.PreWrite(bg(), tx(1), ts(10), "x", 1); err != nil {
		t.Fatal(err)
	}
	// A read at ts=5 precedes the pending write; it may proceed.
	v, _, err := m.Read(bg(), tx(2), ts(5), "x")
	if err != nil || v != 10 {
		t.Errorf("read = %d (%v), want 10", v, err)
	}
	m.Abort(tx(1))
	m.Abort(tx(2))
}

func TestTSOWriteAfterIntentAbort(t *testing.T) {
	m := NewTSO(newStore(), Options{LockTimeout: time.Second})
	if _, err := m.PreWrite(bg(), tx(1), ts(5), "x", 1); err != nil {
		t.Fatal(err)
	}
	m.Abort(tx(1))
	// The aborted intent must not have advanced wts.
	if _, err := m.PreWrite(bg(), tx(2), ts(6), "x", 2); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(2), []model.WriteRecord{rec("x", 2, 1)})
	v, _, err := m.Read(bg(), tx(3), ts(7), "x")
	if err != nil || v != 2 {
		t.Errorf("read = %d (%v)", v, err)
	}
}

// --- MVTSO-specific ---

func TestMVTSOOldReadNeverAborts(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	// Commit x=1 at ts=10.
	if _, err := m.PreWrite(bg(), tx(1), ts(10), "x", 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 1, 1)})
	// A read at ts=5 succeeds under MVTSO (reads the initial version); this
	// exact case is rejected by basic TSO.
	v, _, err := m.Read(bg(), tx(2), ts(5), "x")
	if err != nil {
		t.Fatalf("old read rejected by MVTSO: %v", err)
	}
	if v != 10 {
		t.Errorf("old read = %d, want initial 10", v)
	}
	// And a read at ts=15 sees the new version.
	v, _, err = m.Read(bg(), tx(3), ts(15), "x")
	if err != nil || v != 1 {
		t.Errorf("new read = %d (%v), want 1", v, err)
	}
}

func TestMVTSOLateWriteUnderReadRejected(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	if _, _, err := m.Read(bg(), tx(1), ts(10), "x"); err != nil {
		t.Fatal(err) // initial version now has rts=10
	}
	_, err := m.PreWrite(bg(), tx(2), ts(5), "x", 1)
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("write under a later read not rejected: %v", err)
	}
}

func TestMVTSOWriteBetweenVersions(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	// Version at ts=10.
	m.PreWrite(bg(), tx(1), ts(10), "x", 100)
	m.Commit(tx(1), []model.WriteRecord{rec("x", 100, 1)})
	// Read at ts=20 pins version@10's rts to 20.
	if v, _, err := m.Read(bg(), tx(2), ts(20), "x"); err != nil || v != 100 {
		t.Fatalf("read = %d (%v)", v, err)
	}
	// A write at ts=15 would invalidate that read: rejected.
	if _, err := m.PreWrite(bg(), tx(3), ts(15), "x", 150); model.CauseOf(err) != model.AbortCC {
		t.Fatalf("intervening write not rejected: %v", err)
	}
	// A write at ts=25 is fine.
	if _, err := m.PreWrite(bg(), tx(4), ts(25), "x", 250); err != nil {
		t.Fatal(err)
	}
	m.Commit(tx(4), []model.WriteRecord{rec("x", 250, 2)})
	// Historical read still sees version@10.
	if v, _, err := m.Read(bg(), tx(5), ts(12), "x"); err != nil || v != 100 {
		t.Errorf("historical read = %d (%v), want 100", v, err)
	}
}

func TestMVTSOReadWaitsForCloserIntent(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	if _, err := m.PreWrite(bg(), tx(1), ts(5), "x", 50); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct {
		v   int64
		err error
	}, 1)
	go func() {
		v, _, err := m.Read(bg(), tx(2), ts(10), "x")
		done <- struct {
			v   int64
			err error
		}{v, err}
	}()
	select {
	case <-done:
		t.Fatal("read did not wait for closer pending intent")
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(tx(1), []model.WriteRecord{rec("x", 50, 1)})
	r := <-done
	if r.err != nil || r.v != 50 {
		t.Errorf("read = %d (%v), want 50", r.v, r.err)
	}
}

func TestMVTSOVersionChainPruned(t *testing.T) {
	m := NewMVTSO(newStore(), Options{LockTimeout: time.Second})
	for i := uint64(1); i <= maxVersionChain+10; i++ {
		if _, err := m.PreWrite(bg(), tx(i), ts(i*10), "x", int64(i)); err != nil {
			t.Fatal(err)
		}
		m.Commit(tx(i), []model.WriteRecord{rec("x", int64(i), model.Version(i))})
	}
	m.mu.Lock()
	n := len(m.items["x"].versions)
	m.mu.Unlock()
	if n > maxVersionChain {
		t.Errorf("version chain length %d exceeds bound %d", n, maxVersionChain)
	}
	// Latest read still correct.
	v, _, err := m.Read(bg(), tx(999), ts(100000), "x")
	if err != nil || v != int64(maxVersionChain+10) {
		t.Errorf("latest read = %d (%v)", v, err)
	}
}
