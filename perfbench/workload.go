package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/site"
	"repro/internal/wlg"
)

// Load shape shared by every workload, sized for a 2-vCPU machine: four
// closed-loop clients (the paper's WLG multiprogramming level) over three
// sites, four operations per transaction.
const (
	numSites = 3
	clients  = 4
	opsPerTx = 4
	// retryBudget bounds the restarts of one client transaction after CC or
	// ACP aborts, as wlg's Retries does. It is high enough that no
	// transaction of the contended workload exhausts it behind the 500 ms
	// lock timeout, so a failure is a real regression, not bad luck.
	retryBudget = 10
	// warmup runs before every timed window and is excluded from it: the
	// first transactions dial the site-to-site connections and send gob
	// bodies until each acceptor's codec hello arrives.
	warmup = time.Second
)

// workload is one traffic mix. why is recorded beside the name in
// BENCHMARK.json; a test keeps the two in step.
type workload struct {
	name string
	why  string
	// unlisted, when set, says why the workload is left out of
	// BENCHMARK.json; it then runs only when named on the command line.
	unlisted string
	items    int
	// zipf skews item access when > 1; otherwise access is uniform.
	zipf float64
	// readFrac is the probability an operation is a read; addFrac the
	// probability that a non-read is a blind commutative add.
	readFrac, addFrac float64
	// checkpoint makes every site checkpoint each checkpointBytes of WAL;
	// otherwise checkpoints never trigger.
	checkpoint bool
	// durable selects a segmented WAL with fsync on every force; otherwise
	// the WAL is in memory.
	durable bool
}

// checkpointBytes is the checkpoint trigger of the write workloads: each
// site checkpoints about every two seconds.
const checkpointBytes = 256 << 10

// workloads lists the listed workloads, then the unlisted ones. The
// unlisted ones are steered by events too rare, or a device too shared, to
// repeat within a 25% bound over runs of half a minute on a 2-vCPU machine;
// they stay runnable by name for by-hand comparisons.
var workloads = []workload{
	{
		name: "uniform-rw", items: 4096, readFrac: 0.75,
		why: "Read-mostly uniform access with an in-memory WAL: time goes to RCP round trips through tcpnet, wire and the shard pipeline, while lock waits and the WAL do almost nothing.",
	},
	{
		name: "checkpoint-write", items: 4096, readFrac: 0.25, checkpoint: true,
		why: "Write-heavy uniform access with an in-memory WAL checkpointed every 256 KiB: write quorums, ACP rounds, WAL appends and checkpoint snapshots dominate, with no disk in the way.",
	},
	{
		name: "durable-write", items: 4096, readFrac: 0.25, checkpoint: true, durable: true,
		why: "checkpoint-write on a segmented WAL with fsync on every force: the WAL force joins the ACP rounds on every write transaction.",
		unlisted: "fsync latency on a shared virtual disk moves its whole latency distribution between runs: " +
			"over six 30-second runs goodput and p95 spread 22% and 42% (quartile distance over median)",
	},
	{
		name: "contended-rw", items: 256, zipf: 1.1, readFrac: 0.5,
		why: "Skewed reads and plain writes on 256 items: lock waits and cross-site deadlocks ending in the 500 ms lock timeout, the workload deadlock prevention must improve.",
		unlisted: "its goodput is set by the few dozen 500 ms lock timeouts that land in a window: " +
			"over six 30-second runs goodput and p50 spread 43% and 22%",
	},
	{
		name: "hot-add", items: 64, zipf: 1.4, addFrac: 1,
		why: "Blind commutative adds on 64 hot items, the only workload on the split-execution path: RCP add-to-all-copies, lock-free split slots and delta records.",
		unlisted: "its goodput and p99 are set by the few 500 ms lock timeouts that land in a window: " +
			"over five 40-second runs they spread 19% and 44%",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// client is one closed-loop WLG client: its own generator and backoff
// jitter, both seeded from (workload seed, client index), and a fixed home
// site, so which transactions a client runs does not depend on scheduling.
type client struct {
	gen     *wlg.Generator
	home    *site.Site
	backoff *rand.Rand

	// Kept across warm-up and window for the output checks.
	committed []model.TxID
	deltas    map[model.ItemID]int64
}

// phase is one client's record of one closed-loop phase.
type phase struct {
	ops, failed        int        // client transactions finished, and those that never committed
	attempts, restarts int        // submissions, and re-submissions after an abort
	ccAborts           int        // attempts aborted by concurrency control
	done               []txRecord // committed transactions
}

// txRecord is one committed client transaction.
type txRecord struct {
	lat      time.Duration // first submit to commit, restarts included
	readOnly bool
}

func newClients(w workload, seed int64, c *cluster) []*client {
	readFrac := w.readFrac
	if readFrac == 0 {
		readFrac = -1 // wlg treats 0 as unset (0.75)
	}
	out := make([]*client, clients)
	for i := range out {
		s := clientSeed(seed, i)
		out[i] = &client{
			gen: wlg.New(wlg.Profile{
				Sites: c.ids, Items: c.items, OpsPerTx: opsPerTx,
				ReadFraction: readFrac, AddFraction: w.addFrac, Zipf: w.zipf,
				Seed: s, Transactions: 1, // unused: the loop is time-bound
			}),
			home:    c.sites[i%len(c.sites)],
			backoff: rand.New(rand.NewSource(s ^ 0x5eed)),
			deltas:  make(map[model.ItemID]int64),
		}
	}
	return out
}

// clientSeed derives a client's stream seed (splitmix64 of the pair); wlg
// reserves seed 0 for its default.
func clientSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if s := int64(z >> 1); s != 0 {
		return s
	}
	return 1
}

// runClients runs every client until deadline and returns their phases.
// A transaction started before the deadline runs to its outcome.
func runClients(cs []*client, deadline time.Time) []phase {
	out := make([]phase, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = c.loop(deadline)
		}()
	}
	wg.Wait()
	return out
}

func (c *client) loop(deadline time.Time) phase {
	var p phase
	for time.Now().Before(deadline) {
		ops := c.gen.NextTx()
		start := time.Now()
		out := c.submit(ops, &p)
		lat := time.Since(start)
		p.ops++
		if !out.Committed {
			p.failed++
			continue
		}
		p.done = append(p.done, txRecord{lat: lat, readOnly: readOnly(ops)})
		c.committed = append(c.committed, out.Tx)
		for _, op := range ops {
			if op.Kind == model.OpAdd {
				c.deltas[op.Item] += op.Value
			}
		}
	}
	return p
}

// submit runs one client transaction the way wlg's submitWithRetry does:
// restarted after a CC or ACP abort with jittered exponential backoff, up
// to retryBudget restarts.
func (c *client) submit(ops []model.Op, p *phase) model.Outcome {
	ctx := context.Background()
	for k := 0; ; k++ {
		out := c.home.Execute(ctx, ops)
		p.attempts++
		if out.Cause == model.AbortCC {
			p.ccAborts++
		}
		if out.Committed || k == retryBudget ||
			(out.Cause != model.AbortCC && out.Cause != model.AbortACP) {
			return out
		}
		maxMS := min(10<<k, 320)
		time.Sleep(time.Duration(c.backoff.Intn(maxMS)+1) * time.Millisecond)
		p.restarts++
	}
}

func readOnly(ops []model.Op) bool {
	for _, op := range ops {
		if op.Kind != model.OpRead {
			return false
		}
	}
	return true
}
