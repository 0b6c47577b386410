package lock

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// registered returns how many transactions hold a registry entry (lock
// state) in m.
func registered(m *Manager) int {
	n := 0
	for i := range m.txs {
		m.txMu[i].Lock()
		n += len(m.txs[i])
		m.txMu[i].Unlock()
	}
	return n
}

// at returns a timestamp of the given age rank: a smaller t is older.
func at(t uint64) model.Timestamp { return model.Timestamp{Time: t, Site: "S"} }

// acquireAsync starts a blocking Acquire and returns its result channel.
func acquireAsync(m *Manager, id model.TxID, ts model.Timestamp, item model.ItemID, mode Mode) <-chan error {
	done := make(chan error, 1)
	go func() { done <- m.Acquire(context.Background(), id, ts, item, mode) }()
	return done
}

// mustQueue waits until the manager has queued waits requests in total,
// failing if the started Acquire returns instead.
func mustQueue(t *testing.T, m *Manager, done <-chan error, waits uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Waits < waits {
		select {
		case err := <-done:
			t.Fatalf("request returned %v; want it to wait", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
}

func mustGrant(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiting request failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiting request never granted")
	}
}

// mustDie asserts an immediate wait-die abort with cause CC.
func mustDie(t *testing.T, err error, start time.Time) {
	t.Helper()
	if model.CauseOf(err) != model.AbortCC {
		t.Fatalf("got %v; want a wait-die abort with cause ccp", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("wait-die abort took %v; want it at request time", d)
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]Policy{"": WaitDie, "wait-die": WaitDie, "detect": Detect, "timeout": Timeout} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("wound-wait"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
	if (Options{}).Policy != WaitDie {
		t.Error("the zero policy must be wait-die")
	}
}

// TestWaitDieCrossSiteSingleItem is the cross-site pattern no single site's
// waits-for graph can see: two home sites lock one item's copies at two
// sites in opposite order. Under wait-die the younger transaction aborts at
// once with cause ccp, the older one then gets its lock, and nothing waits
// for the timeout.
func TestWaitDieCrossSiteSingleItem(t *testing.T) {
	s1 := New(Options{Timeout: 2 * time.Second})
	s2 := New(Options{Timeout: 2 * time.Second})
	older := model.TxID{Site: "S1", Seq: 1}
	younger := model.TxID{Site: "S2", Seq: 1}
	if err := s1.Acquire(context.Background(), older, at(1), "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := s2.Acquire(context.Background(), younger, at(2), "x", Exclusive); err != nil {
		t.Fatal(err)
	}

	olderAtS2 := acquireAsync(s2, older, at(1), "x", Exclusive)
	mustQueue(t, s2, olderAtS2, 1)
	start := time.Now()
	mustDie(t, s1.Acquire(context.Background(), younger, at(2), "x", Exclusive), start)

	// The younger transaction's home site releases it everywhere.
	s1.ReleaseAll(younger)
	s2.ReleaseAll(younger)
	mustGrant(t, olderAtS2)

	st1, st2 := s1.Stats(), s2.Stats()
	if st1.Dies+st2.Dies != 1 || st1.Timeouts+st2.Timeouts != 0 || st1.Deadlocks+st2.Deadlocks != 0 {
		t.Errorf("stats S1 %+v, S2 %+v; want exactly one die and no timeouts", st1, st2)
	}
}

func TestWaitDieHolders(t *testing.T) {
	m := New(Options{Timeout: 2 * time.Second})
	old, mid, young := tx(1), tx(2), tx(3)
	if err := m.Acquire(context.Background(), mid, at(20), "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	// Younger than the holder: dies, in either mode.
	start := time.Now()
	mustDie(t, m.Acquire(context.Background(), young, at(30), "x", Shared), start)
	mustDie(t, m.Acquire(context.Background(), young, at(30), "x", Exclusive), start)
	// Older than the holder: waits, and is granted on release.
	done := acquireAsync(m, old, at(10), "x", Shared)
	mustQueue(t, m, done, 1)
	m.ReleaseAll(mid)
	mustGrant(t, done)
	if st := m.Stats(); st.Dies != 2 || st.Timeouts != 0 {
		t.Errorf("stats %+v; want two dies and no timeouts", st)
	}
}

func TestWaitDieQueuedWaiters(t *testing.T) {
	m := New(Options{Timeout: 2 * time.Second})
	holder, waiter, between, oldest := tx(1), tx(2), tx(3), tx(4)
	if err := m.Acquire(context.Background(), holder, at(50), "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	first := acquireAsync(m, waiter, at(20), "x", Exclusive)
	mustQueue(t, m, first, 1)
	// Older than the holder but younger than the waiter queued ahead: dies.
	start := time.Now()
	mustDie(t, m.Acquire(context.Background(), between, at(30), "x", Exclusive), start)
	// Older than both: queues behind the waiter, FIFO.
	second := acquireAsync(m, oldest, at(10), "x", Exclusive)
	mustQueue(t, m, second, 2)

	m.ReleaseAll(holder)
	mustGrant(t, first)
	select {
	case err := <-second:
		t.Fatalf("second waiter jumped the queue: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(waiter)
	mustGrant(t, second)
}

// TestWaitDieUpgrade: two readers both upgrading is the classic
// single-item deadlock; the younger upgrader dies and the older one gets
// the exclusive lock once the younger releases.
func TestWaitDieUpgrade(t *testing.T) {
	m := New(Options{Timeout: 2 * time.Second})
	old, young := tx(1), tx(2)
	for _, r := range []struct {
		id model.TxID
		ts model.Timestamp
	}{{old, at(1)}, {young, at(2)}} {
		if err := m.Acquire(context.Background(), r.id, r.ts, "x", Shared); err != nil {
			t.Fatal(err)
		}
	}
	up := acquireAsync(m, old, at(1), "x", Exclusive)
	mustQueue(t, m, up, 1)
	start := time.Now()
	mustDie(t, m.Acquire(context.Background(), young, at(2), "x", Exclusive), start)
	m.ReleaseAll(young)
	mustGrant(t, up)
	if got := m.Holding(old, "x"); got != Exclusive {
		t.Errorf("older upgrader holds %v; want X", got)
	}
}

// TestTryAcquireLeavesNoState: a would-block answer and a wait-die abort
// both leave the lock table and the registry exactly as they were.
func TestTryAcquireLeavesNoState(t *testing.T) {
	m := New(Options{Timeout: 2 * time.Second})
	holder := tx(2)
	if err := m.TryAcquire(holder, at(20), "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.TryAcquire(tx(3), at(30), "x", Shared); model.CauseOf(err) != model.AbortCC {
		t.Fatalf("younger TryAcquire = %v; want a wait-die abort", err)
	}
	if err := m.TryAcquire(tx(1), at(10), "x", Shared); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("older TryAcquire = %v; want ErrWouldBlock", err)
	}
	if n := registered(m); n != 1 {
		t.Errorf("%d transactions registered; want only the holder", n)
	}
	if st := m.Stats(); st.Waits != 0 || st.Grants != 1 {
		t.Errorf("stats %+v; want one grant and no waits", st)
	}
	m.ReleaseAll(holder)
	if !m.Idle("x") || registered(m) != 0 {
		t.Error("lock state left behind after the holder's release")
	}
	// The older request's retry goes through without a trace of the
	// earlier refusals.
	if err := m.TryAcquire(tx(1), at(10), "x", Exclusive); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseAllDropsTimestamp keeps the registry bounded: once every
// transaction is released, no timestamp entry remains — whether it held,
// waited, or died.
func TestReleaseAllDropsTimestamp(t *testing.T) {
	m := New(Options{Timeout: 2 * time.Second, Shards: 4})
	for i := uint64(1); i <= 200; i++ {
		item := model.ItemID([]string{"a", "b", "c"}[i%3])
		m.TryAcquire(tx(i), at(i), item, Shared) //nolint:errcheck
	}
	if registered(m) == 0 {
		t.Fatal("no transaction registered")
	}
	for i := uint64(1); i <= 200; i++ {
		m.ReleaseAll(tx(i))
	}
	if n := registered(m); n != 0 {
		t.Errorf("%d registry entries after releasing everything", n)
	}
}

// TestWaitDieStressNeverTimesOut hammers the default policy with random
// multi-item transactions: wait-die must break every would-be deadlock at
// request time, so no request may ever reach the wait timeout, and an
// exclusive holder is always alone.
func TestWaitDieStressNeverTimesOut(t *testing.T) {
	m := New(Options{Timeout: 2 * time.Second})
	items := []model.ItemID{"a", "b", "c", "d"}
	var clock atomic.Uint64
	var violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				id := model.TxID{Site: "S", Seq: uint64(g*1000 + i)}
				ts := at(clock.Add(1))
				for j, n := 0, 1+rng.Intn(3); j < n; j++ {
					item := items[rng.Intn(len(items))]
					mode := Shared
					if rng.Intn(2) == 0 {
						mode = Exclusive
					}
					if err := m.Acquire(context.Background(), id, ts, item, mode); err != nil {
						break
					}
					if mode == Exclusive && !m.soleHolder(id, item) {
						violations.Add(1)
					}
				}
				m.ReleaseAll(id)
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if v := violations.Load(); v != 0 {
		t.Errorf("%d exclusivity violations", v)
	}
	if st.Timeouts != 0 {
		t.Errorf("%d requests timed out under wait-die (stats %+v)", st.Timeouts, st)
	}
	if st.Dies == 0 {
		t.Error("the stress produced no conflicts; it tests nothing")
	}
	if n := registered(m); n != 0 {
		t.Errorf("%d registry entries left", n)
	}
}

// TestWaitDieCommittingHolder: a holder that has entered its commit
// protocol takes no more locks, so a younger requester waits for it
// instead of aborting, and is granted when it releases.
func TestWaitDieCommittingHolder(t *testing.T) {
	m := New(Options{Timeout: 2 * time.Second})
	holder, young := tx(1), tx(2)
	if err := m.Acquire(context.Background(), holder, at(10), "x", Exclusive); err != nil {
		t.Fatal(err)
	}
	m.Committing(holder)
	m.Committing(tx(9)) // no lock state here: no entry may appear
	if n := registered(m); n != 1 {
		t.Fatalf("%d registry entries; want only the holder's", n)
	}
	done := acquireAsync(m, young, at(20), "x", Exclusive)
	mustQueue(t, m, done, 1)
	m.ReleaseAll(holder)
	mustGrant(t, done)
	if st := m.Stats(); st.Dies != 0 {
		t.Errorf("stats %+v; want no wait-die abort against a committing holder", st)
	}
}
