package site

import (
	"sync"
	"testing"

	"repro/internal/history"
	"repro/internal/model"
)

// TestWaitDieContentionNeverTimesOut drives concurrent writers of the same
// two items from every home site — the pattern that locks one item's
// copies at different sites in opposite order. Under the default wait-die
// policy such conflicts end in immediate ccp aborts, never in the lock
// timeout; every transaction commits within its client retries, and the
// history stays serializable.
func TestWaitDieContentionNeverTimesOut(t *testing.T) {
	c := newCluster(t, 3, defaultProtocols(), items())
	const clients, txs = 6, 15
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		committed = make(map[model.TxID]bool)
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			home := c.sites[c.ids[i%len(c.ids)]]
			for j := 0; j < txs; j++ {
				out := executeRetrying(home, []model.Op{model.Write("x", int64(100*i+j)), model.Write("y", int64(100*i+j))})
				if !out.Committed {
					t.Errorf("client %d tx %d: %+v", i, j, out)
					return
				}
				mu.Lock()
				committed[out.Tx] = true
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	var waits, dies, timeouts, deadlocks uint64
	var recs []*history.Recorder
	for _, id := range c.ids {
		st := c.sites[id].Stats()
		waits += st.CCWaits
		dies += st.CCWaitDies
		timeouts += st.CCLockTimeouts
		deadlocks += st.CCDeadlocks
		recs = append(recs, c.sites[id].HistoryRecorder())
	}
	if timeouts != 0 || deadlocks != 0 {
		t.Errorf("lock timeouts %d, detected deadlocks %d; want 0 under wait-die", timeouts, deadlocks)
	}
	if waits+dies == 0 {
		t.Error("no lock conflict at all: the test exercised nothing")
	}
	if err := history.CheckSerializable(history.Merge(recs...), committed); err != nil {
		t.Error(err)
	}
	t.Logf("%d commits, %d waits, %d wait-die aborts", len(committed), waits, dies)
}
