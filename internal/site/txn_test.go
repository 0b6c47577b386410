package site

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

func TestTxnInteractiveReadModifyWrite(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	s := c.sites["A"]
	txn, err := s.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	x, err := txn.Read("x")
	if err != nil || x != 10 {
		t.Fatalf("read x = %d, %v", x, err)
	}
	if err := txn.Write("x", x*2); err != nil {
		t.Fatal(err)
	}
	out := txn.Commit()
	if !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
	check := s.Execute(context.Background(), []model.Op{model.Read("x")})
	if check.Reads["x"] != 20 {
		t.Errorf("x = %d, want 20", check.Reads["x"])
	}
}

// TestTxnAbortDiscardsWrites: the abort releases the remote copies
// asynchronously, so the check read — younger than the aborted writer —
// may meet its lock first and abort under wait-die; it retries the way a
// client does.
func TestTxnAbortDiscardsWrites(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	s := c.sites["A"]
	txn, _ := s.Begin(context.Background())
	txn.Write("x", 999)
	out := txn.Abort()
	if out.Committed {
		t.Fatal("aborted txn reported committed")
	}
	check := executeRetrying(s, []model.Op{model.Read("x")})
	if !check.Committed || check.Reads["x"] != 10 {
		t.Errorf("x = %+v, want original 10", check)
	}
}

func TestTxnDoomedAfterError(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	s := c.sites["A"]
	txn, _ := s.Begin(context.Background())
	if _, err := txn.Read("ghost"); err == nil {
		t.Fatal("read of unknown item succeeded")
	}
	// Every further operation returns the dooming error.
	if _, err := txn.Read("x"); err == nil {
		t.Error("doomed txn allowed another read")
	}
	if err := txn.Write("x", 1); err == nil {
		t.Error("doomed txn allowed a write")
	}
	// Commit degrades to abort.
	out := txn.Commit()
	if out.Committed {
		t.Error("doomed txn committed")
	}
}

func TestTxnDoubleFinishSafe(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	s := c.sites["A"]
	txn, _ := s.Begin(context.Background())
	txn.Write("x", 1)
	first := txn.Commit()
	if !first.Committed {
		t.Fatalf("outcome = %+v", first)
	}
	// Double finishes are inert and do not distort statistics.
	before := s.Stats()
	txn.Commit()
	txn.Abort()
	if _, err := txn.Read("x"); err == nil {
		t.Error("finished txn allowed a read")
	}
	after := s.Stats()
	if after.Began != before.Began || after.Committed != before.Committed || after.Aborted != before.Aborted {
		t.Errorf("double finish changed stats: %+v -> %+v", before, after)
	}
}

func TestTxnBeginOnCrashedSiteFails(t *testing.T) {
	c := newCluster(t, 2, defaultProtocols(), items())
	s := c.sites["A"]
	c.net.Pause("A")
	s.Crash()
	if _, err := s.Begin(context.Background()); err == nil {
		t.Error("Begin on crashed site succeeded")
	}
}

func TestTxnReadYourOwnWrite(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	s := c.sites["B"]
	txn, _ := s.Begin(context.Background())
	if err := txn.Write("y", 77); err != nil {
		t.Fatal(err)
	}
	v, err := txn.Read("y")
	if err != nil || v != 77 {
		t.Errorf("read-own-write = %d (%v), want 77", v, err)
	}
	txn.Commit()
}

func TestTxnConcurrentTransfersPreserveSum(t *testing.T) {
	// The bank example's invariant as a test: concurrent interactive
	// read-modify-write transfers never create or destroy value.
	c := newCluster(t, 3, defaultProtocols(), map[model.ItemID]int64{"a1": 100, "a2": 100, "a3": 100})
	var wg sync.WaitGroup
	accounts := []model.ItemID{"a1", "a2", "a3"}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			home := c.sites[c.ids[g%len(c.ids)]]
			from, to := accounts[g%3], accounts[(g+1)%3]
			for i := 0; i < 5; i++ {
				txn, err := home.Begin(context.Background())
				if err != nil {
					continue
				}
				bf, err := txn.Read(from)
				if err != nil {
					txn.Abort()
					continue
				}
				bt, err := txn.Read(to)
				if err != nil {
					txn.Abort()
					continue
				}
				if txn.Write(from, bf-1) != nil || txn.Write(to, bt+1) != nil {
					txn.Abort()
					continue
				}
				txn.Commit()
			}
		}(g)
	}
	wg.Wait()
	audit := c.sites["A"].Execute(context.Background(), []model.Op{
		model.Read("a1"), model.Read("a2"), model.Read("a3"),
	})
	if !audit.Committed {
		t.Fatalf("audit failed: %+v", audit)
	}
	sum := audit.Reads["a1"] + audit.Reads["a2"] + audit.Reads["a3"]
	if sum != 300 {
		t.Errorf("sum = %d, want 300 (balances %v)", sum, audit.Reads)
	}
}

// executeRetrying runs ops like a workload client: a transaction aborted by
// concurrency control restarts, with a fresh timestamp, after a jittered
// exponential backoff (capped at 32 ms), up to 30 times.
func executeRetrying(s *Site, ops []model.Op) model.Outcome {
	for attempt := 0; ; attempt++ {
		out := s.Execute(context.Background(), ops)
		if out.Committed || out.Cause != model.AbortCC || attempt == 30 {
			return out
		}
		time.Sleep(time.Duration(1+rand.IntN(min(1<<attempt, 32))) * time.Millisecond)
	}
}
