// Package soak is Rainbow's seeded fault-injection soak harness: it runs a
// cluster under randomized transaction load while injecting partitions,
// crashes-with-recovery, manual checkpoints and mid-flight catalog epoch
// bumps (live re-sharding), then audits cluster-wide invariants:
//
//   - decision agreement — no two sites ever disagree on a transaction's
//     outcome (atomicity across sites);
//   - no committed write lost — every install is version-stamped, so the
//     highest-version write in the merged execution history must still be
//     the quorum-read value of its item after all faults, reconfigurations
//     and recoveries (and per-(item,version) values must agree across all
//     copies — versions are per-item serialization points);
//   - in-doubt transactions terminate — the orphan count drains to zero
//     once all sites are back (2PC decision requests / 3PC cooperative
//     termination);
//   - catalog convergence — every site ends on the name server's epoch;
//   - serializability — the merged execution history of the committed
//     transactions passes the multiversion serializability check, under
//     whichever 2PL deadlock policy (wait-die or detect) the seed drew;
//   - checkpoint chains stay composable — the final audit repeats after
//     crash-recovering every site, so the last full+delta chain plus the
//     retained WAL must reproduce the same store.
//
// Every random choice — cluster shape, workload, fault schedule, epoch
// bumps — derives from one seed, so a failure replays with the same event
// plan (goroutine interleavings still vary; the plan does not). The test
// wrapper prints failing seeds with a one-line replay command.
package soak

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/wlg"
)

// Options configures one soak run. Zero values select the short-profile
// defaults sized for CI.
type Options struct {
	// Seed drives every random choice of the run.
	Seed int64
	// Sites is the cluster size (default 3).
	Sites int
	// Items is the database size (default 5).
	Items int
	// Rounds is the number of load+fault episodes (default 2).
	Rounds int
	// TxPerRound is the workload length per round (default 8).
	TxPerRound int
	// MPL is the workload's multiprogramming level (default 3).
	MPL int
	// Counters is the number of add-only counter items kept OUTSIDE the
	// random workload's item set (default 2, negative disables). A seeded
	// storm of blind-add transactions targets them concurrently with the
	// fault schedule, and the audit then demands the reconciled value equal
	// the initial value plus the EXACT sum of committed deltas — a slot
	// delta lost or double-applied across a crash, checkpoint or epoch
	// bump shows up as an off-by-delta here.
	Counters int
	// Logf, when set, receives progress lines (the replay test wires it to
	// t.Logf so a failing seed can be studied step by step).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Sites <= 0 {
		o.Sites = 3
	}
	if o.Items <= 0 {
		o.Items = 5
	}
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	if o.TxPerRound <= 0 {
		o.TxPerRound = 8
	}
	if o.MPL <= 0 {
		o.MPL = 3
	}
	if o.Counters == 0 {
		o.Counters = 2
	}
	if o.Counters < 0 {
		o.Counters = 0
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Report summarizes one soak run for the logs.
type Report struct {
	Submitted, Committed            int
	Adds, AddsCommitted             int
	EpochBumps, Crashes, Partitions int
	Checkpoints                     int
	FinalEpoch                      uint64
	ACP                             string
	Deadlock                        string
}

// addOp is one planned blind-add transaction of the counter storm.
type addOp struct {
	home  model.SiteID
	item  model.ItemID
	delta int64
}

// step is one planned fault/admin event inside a round.
type step struct {
	after time.Duration
	kind  string // "partition", "heal", "crash", "recover", "bump", "checkpoint"
	site  model.SiteID
	group [][]model.SiteID
}

// Run executes one seeded soak iteration and returns an error describing
// the first violated invariant (nil when all hold).
func Run(o Options) (Report, error) {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))
	var rep Report

	sites := make([]model.SiteID, o.Sites)
	for i := range sites {
		sites[i] = model.SiteID(fmt.Sprintf("S%d", i+1))
	}
	items := make(map[model.ItemID]int64, o.Items+o.Counters)
	itemIDs := make([]model.ItemID, o.Items)
	for i := 0; i < o.Items; i++ {
		id := model.ItemID(fmt.Sprintf("i%d", i))
		itemIDs[i] = id
		items[id] = int64(100 + i)
	}
	// Counter items live in the catalog but not in the workload's item set:
	// they must only ever see blind adds, so the exact-sum audit has no
	// absolute writes to reason about.
	counters := make([]model.ItemID, o.Counters)
	counterInit := make(map[model.ItemID]int64, o.Counters)
	for i := 0; i < o.Counters; i++ {
		id := model.ItemID(fmt.Sprintf("c%d", i))
		counters[i] = id
		items[id] = int64(1000 * (i + 1))
		counterInit[id] = items[id]
	}
	// Both protocols soak the full fault matrix. 3PC termination is
	// quorum-based (E3PC): participants log their pre-commit/pre-abort
	// transitions and election promises, termination decides only through
	// majority quorums of the write electorate, and recovered members
	// rejoin with their logged state — so crashes and partitions DURING
	// 3PC episodes (including the crash-everyone recomposition) are fair
	// game, not excluded like under the old cooperative termination.
	acp := "2pc"
	if rng.Intn(2) == 1 {
		acp = "3pc"
	}
	rep.ACP = acp
	// Both deadlock policies the serializability check must hold under:
	// wait-die aborts by age at request time, detect by local cycles.
	deadlock := "wait-die"
	if rng.Intn(2) == 1 {
		deadlock = "detect"
	}
	rep.Deadlock = deadlock

	in, err := core.New(core.Options{
		Sites: sites, Items: items,
		Protocols: schema.Protocols{RCP: "qc", CCP: "2pl", ACP: acp, Deadlock: deadlock},
		Timeouts: schema.Timeouts{
			Op: 150 * time.Millisecond, Vote: 150 * time.Millisecond,
			Ack: 100 * time.Millisecond, Lock: 100 * time.Millisecond,
			OrphanResolve: 25 * time.Millisecond,
		},
		Net: simnet.Config{
			BaseLatency: 200 * time.Microsecond,
			Jitter:      100 * time.Microsecond,
			Seed:        rng.Int63(),
		},
		Checkpoint: schema.CheckpointPolicy{
			Interval: time.Duration(20+rng.Intn(20)) * time.Millisecond,
			DeltaMax: 1 + rng.Intn(4),
		},
		// Trace every transaction: the workload is tiny, and a violation
		// report can then dump the implicated transactions' full stage-level
		// history (which sites they touched, where they waited, what the ACP
		// did). Site-local policy, so epoch bumps cannot reconfigure it away.
		Trace:       schema.TracePolicy{SampleRate: 1, Ring: 2048},
		CatalogPoll: 30 * time.Millisecond,
	})
	if err != nil {
		return rep, err
	}
	defer in.Close()

	committedAdds := make(map[model.TxID]addOp)
	committed := make(map[model.TxID]bool) // client-acknowledged commits
	var addsMu sync.Mutex
	for round := 0; round < o.Rounds; round++ {
		steps := planRound(rng, sites, &rep)
		profile := wlg.Profile{
			Transactions: o.TxPerRound,
			MPL:          o.MPL,
			OpsPerTx:     1 + rng.Intn(3),
			ReadFraction: 0.4,
			Retries:      1,
			RandomHomes:  true,
			Items:        append([]model.ItemID(nil), itemIDs...),
			Seed:         rng.Int63(),
		}
		// The counter storm is planned here, before any concurrency, for the
		// same reason planRound is: all rng consumption stays deterministic.
		storm := make([]addOp, 0, o.TxPerRound)
		if len(counters) > 0 {
			for i := 0; i < o.TxPerRound; i++ {
				storm = append(storm, addOp{
					home:  sites[rng.Intn(len(sites))],
					item:  counters[rng.Intn(len(counters))],
					delta: int64(1 + rng.Intn(9)),
				})
			}
		}
		rep.Adds += len(storm)
		wctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
		done := make(chan wlg.Result, 1)
		go func() { done <- in.RunWorkload(wctx, profile) }()
		stormDone := make(chan int, 1)
		go func() {
			ok := 0
			for _, op := range storm {
				out := in.Submit(wctx, op.home, []model.Op{model.Add(op.item, op.delta)})
				if out.Committed {
					ok++
					addsMu.Lock()
					committedAdds[out.Tx] = op
					addsMu.Unlock()
				}
			}
			stormDone <- ok
		}()
		start := time.Now()
		for _, s := range steps {
			if d := s.after - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			applyStep(in, rng, s, o.Logf)
		}
		res := <-done
		addsOK := <-stormDone
		cancel()
		rep.Submitted += res.Submitted
		rep.Committed += res.Committed
		for tx := range core.CommittedSet(res.Outcomes) {
			committed[tx] = true
		}
		rep.AddsCommitted += addsOK
		o.Logf("round %d: %d/%d committed, %d/%d adds, causes %v",
			round, res.Committed, res.Submitted, addsOK, len(storm), res.ByCause)
	}

	// Settle: heal, recover everyone, converge on the catalog, drain
	// orphans — only then are the invariants expected to hold.
	in.Injector.Heal()
	for _, id := range sites {
		if in.Injector.Crashed(id) {
			if err := in.Injector.Recover(id); err != nil {
				return rep, fmt.Errorf("settle recover %s: %w", id, err)
			}
		}
	}
	rep.FinalEpoch = in.NS.Epoch()
	if !in.WaitEpoch(rep.FinalEpoch, 5*time.Second) {
		return rep, fmt.Errorf("catalog did not converge: name server at epoch %d, sites at %v", rep.FinalEpoch, siteEpochs(in, sites))
	}
	if !in.WaitOrphansDrained(8 * time.Second) {
		return rep, fmt.Errorf("in-doubt transactions did not terminate: %d orphans remain", in.Orphans())
	}
	if err := checkInvariants(in, sites, itemIDs); err != nil {
		return rep, err
	}
	if err := checkCounters(in, sites, counters, counterInit, committedAdds); err != nil {
		return rep, err
	}
	if err := checkSerializable(in, committed, committedAdds); err != nil {
		return rep, err
	}

	// Full-restart audit: crash and recover every site, then re-check —
	// this forces recovery through the newest checkpoint chain plus the
	// retained WAL, proving the chains written under faults and epoch
	// bumps stay composable.
	for _, id := range sites {
		if err := in.Injector.Crash(id); err != nil {
			return rep, fmt.Errorf("final crash %s: %w", id, err)
		}
	}
	for _, id := range sites {
		if err := in.Injector.Recover(id); err != nil {
			return rep, fmt.Errorf("final recover %s: %w", id, err)
		}
	}
	if !in.WaitOrphansDrained(8 * time.Second) {
		return rep, fmt.Errorf("after full restart: %d orphans remain", in.Orphans())
	}
	if err := checkInvariants(in, sites, itemIDs); err != nil {
		return rep, fmt.Errorf("after full restart: %w", err)
	}
	// Re-running the exact-sum audit after the crash-everyone recomposition
	// is the point of the exercise: delta WAL records and checkpoint chains
	// must reproduce the reconciled counters to the digit.
	if err := checkCounters(in, sites, counters, counterInit, committedAdds); err != nil {
		return rep, fmt.Errorf("after full restart: %w", err)
	}
	return rep, nil
}

// planRound draws a deterministic fault/admin schedule for one round. All
// rng consumption happens here, before any concurrency, so a seed always
// produces the same plan. Crashes and partitions are emitted as pairs
// (fault, then undo) so a round cannot wedge the workload forever, and
// single-crash events take down at most one site at a time (a QC majority
// stays available); the crash-all event deliberately breaks that rule —
// every site goes down mid-round and recomposes from its WAL, exercising
// recovery straight through in-flight 2PC and 3PC episodes (termination
// state included).
func planRound(rng *rand.Rand, sites []model.SiteID, rep *Report) []step {
	var steps []step
	at := time.Duration(20+rng.Intn(40)) * time.Millisecond
	events := 1 + rng.Intn(3)
	for e := 0; e < events; e++ {
		hold := time.Duration(40+rng.Intn(80)) * time.Millisecond
		kinds := []string{"bump", "checkpoint", "crash", "partition", "crashall"}
		switch kinds[rng.Intn(len(kinds))] {
		case "bump":
			steps = append(steps, step{after: at, kind: "bump"})
			rep.EpochBumps++
		case "crash":
			victim := sites[rng.Intn(len(sites))]
			steps = append(steps, step{after: at, kind: "crash", site: victim})
			steps = append(steps, step{after: at + hold, kind: "recover", site: victim})
			rep.Crashes++
		case "crashall":
			// Crash-everyone recomposition: the whole cluster goes down
			// mid-episode (possibly mid-termination) and comes back from
			// logs alone.
			steps = append(steps, step{after: at, kind: "crashall"})
			steps = append(steps, step{after: at + hold, kind: "recoverall"})
			rep.Crashes += len(sites)
		case "checkpoint":
			steps = append(steps, step{after: at, kind: "checkpoint", site: sites[rng.Intn(len(sites))]})
			rep.Checkpoints++
		case "partition":
			shuffled := append([]model.SiteID(nil), sites...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			cut := 1 + rng.Intn(len(shuffled)-1)
			steps = append(steps, step{after: at, kind: "partition",
				group: [][]model.SiteID{shuffled[:cut], shuffled[cut:]}})
			steps = append(steps, step{after: at + hold, kind: "heal"})
			rep.Partitions++
		}
		at += hold + time.Duration(10+rng.Intn(30))*time.Millisecond
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].after < steps[j].after })
	return steps
}

// applyStep executes one planned event. Individual fault errors (a crash
// racing a recover, a checkpoint on a down site) are logged, not fatal —
// the invariants at the end are the verdict.
func applyStep(in *core.Instance, rng *rand.Rand, s step, logf func(string, ...any)) {
	switch s.kind {
	case "crash":
		logf("crash %s", s.site)
		if err := in.Injector.Crash(s.site); err != nil {
			logf("  (crash: %v)", err)
		}
	case "crashall":
		logf("crash ALL")
		for _, id := range in.SiteIDs() {
			if err := in.Injector.Crash(id); err != nil {
				logf("  (crash %s: %v)", id, err)
			}
		}
	case "recoverall":
		logf("recover ALL")
		for _, id := range in.SiteIDs() {
			if !in.Injector.Crashed(id) {
				continue
			}
			if err := in.Injector.Recover(id); err != nil {
				logf("  (recover %s: %v)", id, err)
			}
		}
	case "recover":
		logf("recover %s", s.site)
		if err := in.Injector.Recover(s.site); err != nil {
			logf("  (recover: %v)", err)
		}
	case "partition":
		logf("partition %v", s.group)
		in.Injector.Partition(s.group...)
	case "heal":
		logf("heal")
		in.Injector.Heal()
	case "checkpoint":
		if st, ok := in.Site(s.site); ok {
			logf("checkpoint %s", s.site)
			if err := st.Checkpoint(); err != nil {
				logf("  (checkpoint: %v)", err)
			}
		}
	case "bump":
		cat := in.Catalog()
		cat.Shards = 1 << rng.Intn(4) // 1..8
		cat.Checkpoint.DeltaMax = 1 + rng.Intn(4)
		epoch, err := in.UpdateCatalog(cat)
		logf("epoch bump -> %d (shards=%d deltaMax=%d): %v", epoch, cat.Shards, cat.Checkpoint.DeltaMax, err)
	}
}

func siteEpochs(in *core.Instance, sites []model.SiteID) map[model.SiteID]uint64 {
	out := make(map[model.SiteID]uint64, len(sites))
	for _, id := range sites {
		if st, ok := in.Site(id); ok {
			out[id] = st.Epoch()
		}
	}
	return out
}

// dumpItem renders one item's full cross-site picture — every copy and
// every history write event — so a divergence failure is self-diagnosing.
func dumpItem(in *core.Instance, sites []model.SiteID, item model.ItemID) string {
	var b strings.Builder
	for _, id := range sites {
		st, _ := in.Site(id)
		cp, ok := st.Store().Get(item)
		fmt.Fprintf(&b, "  %s: copy=%+v present=%v epoch=%d\n", id, cp, ok, st.Epoch())
	}
	for _, e := range in.History() {
		if e.Item == item && e.Kind == model.OpWrite {
			fmt.Fprintf(&b, "  history: site=%s tx=%v v%d=%d\n", e.Site, e.Tx, e.Version, e.Value)
		}
	}
	return b.String()
}

// tracesOf collates the retained trace fragments of the implicated
// transactions across every site and renders their stage breakdowns —
// appended to invariant-violation errors so a failure shows not just the
// divergent state but the distributed execution that produced it.
func tracesOf(in *core.Instance, sites []model.SiteID, txs map[model.TxID]bool) string {
	frags := make([][]trace.Trace, 0, len(sites))
	for _, id := range sites {
		if st, ok := in.Site(id); ok {
			frags = append(frags, st.Tracer().TracesFor(txs))
		}
	}
	groups := trace.Collate(frags...)
	if len(groups) == 0 {
		return "  traces: none retained for the implicated transactions\n"
	}
	ids := make([]trace.ID, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	b.WriteString("  traces of implicated transactions:\n")
	for _, id := range ids {
		b.WriteString(trace.Format(groups[id]))
	}
	return b.String()
}

// itemWriters returns every transaction the merged history shows writing
// item — the implicated set for a copy-divergence or lost-write violation.
func itemWriters(in *core.Instance, item model.ItemID) map[model.TxID]bool {
	txs := make(map[model.TxID]bool)
	for _, e := range in.History() {
		if e.Item == item && e.Kind == model.OpWrite {
			txs[e.Tx] = true
		}
	}
	return txs
}

// checkCounters audits the add-only counter items: the reconciled value of
// each must equal its initial value plus the EXACT sum of committed deltas.
// The merged history is the ground truth — every committed add is recorded
// (as OpAdd) by each installing site, so deduping by (tx, item) yields each
// delta exactly once — and every client-acknowledged add must appear in it.
func checkCounters(in *core.Instance, sites []model.SiteID, counters []model.ItemID, initial map[model.ItemID]int64, acked map[model.TxID]addOp) error {
	if len(counters) == 0 {
		return nil
	}
	isCounter := make(map[model.ItemID]bool, len(counters))
	for _, c := range counters {
		isCounter[c] = true
	}
	type key struct {
		tx   model.TxID
		item model.ItemID
	}
	deltas := make(map[key]int64)
	count := make(map[model.ItemID]int)
	sum := make(map[model.ItemID]int64)
	for _, e := range in.History() {
		switch {
		case e.Kind == model.OpAdd:
			k := key{e.Tx, e.Item}
			if prev, seen := deltas[k]; seen {
				if prev != e.Value {
					return fmt.Errorf("add divergence: tx %v on %s recorded as both +%d and +%d\n%s",
						e.Tx, e.Item, prev, e.Value, tracesOf(in, sites, map[model.TxID]bool{e.Tx: true}))
				}
				continue
			}
			deltas[k] = e.Value
			count[e.Item]++
			sum[e.Item] += e.Value
		case e.Kind == model.OpWrite && isCounter[e.Item]:
			return fmt.Errorf("counter %s received an absolute write (tx %v v%d) — workload confinement broken",
				e.Item, e.Tx, e.Version)
		}
	}
	for tx, op := range acked {
		got, ok := deltas[key{tx, op.item}]
		if !ok {
			return fmt.Errorf("acknowledged add lost: tx %v (+%d on %s) missing from the merged history\n%s",
				tx, op.delta, op.item, tracesOf(in, sites, map[model.TxID]bool{tx: true}))
		}
		if got != op.delta {
			return fmt.Errorf("acknowledged add mutated: tx %v on %s committed +%d, history says +%d",
				tx, op.item, op.delta, got)
		}
	}
	ops := make([]model.Op, 0, len(counters))
	for _, c := range counters {
		ops = append(ops, model.Read(c))
	}
	var out model.Outcome
	deadline := time.Now().Add(12 * time.Second)
	for {
		out = in.Submit(context.Background(), sites[0], ops)
		if out.Committed || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !out.Committed {
		return fmt.Errorf("counter audit read would not commit: %+v", out)
	}
	for _, c := range counters {
		want := initial[c] + sum[c]
		if got := out.Reads[c]; got != want {
			return fmt.Errorf("counter %s = %d, want %d (initial %d + %d committed adds summing %d)\n%s",
				c, got, want, initial[c], count[c], sum[c], dumpItem(in, sites, c))
		}
	}
	return nil
}

// checkSerializable runs the multiversion serializability check over the
// merged history of the whole run. The committed set is every commit a
// client saw, plus every transaction whose writes some site installed: a
// client may see an abort or an unresolved outcome for a transaction that
// commits later (3PC termination, lost decision acks), and the history's
// write events are recorded at install, so they name committed
// transactions only.
func checkSerializable(in *core.Instance, acked map[model.TxID]bool, adds map[model.TxID]addOp) error {
	events := in.History()
	committed := make(map[model.TxID]bool, len(acked)+len(adds))
	for tx := range acked {
		committed[tx] = true
	}
	for tx := range adds {
		committed[tx] = true
	}
	for _, e := range events {
		if e.Kind != model.OpRead {
			committed[e.Tx] = true
		}
	}
	if err := history.CheckSerializable(events, committed); err != nil {
		return fmt.Errorf("serializability: %w", err)
	}
	return nil
}

// checkInvariants audits the settled cluster. See the package comment for
// the invariant list.
func checkInvariants(in *core.Instance, sites []model.SiteID, itemIDs []model.ItemID) error {
	// 1. Decision agreement: any transaction known to several decision
	// tables must carry the same verdict everywhere.
	verdicts := make(map[model.TxID]bool)
	owner := make(map[model.TxID]model.SiteID)
	for _, id := range sites {
		st, _ := in.Site(id)
		for tx, commit := range st.DecisionTable() {
			if prev, seen := verdicts[tx]; seen && prev != commit {
				return fmt.Errorf("decision divergence on %v: %s says commit=%v, %s says commit=%v\n%s",
					tx, owner[tx], prev, id, commit, tracesOf(in, sites, map[model.TxID]bool{tx: true}))
			}
			verdicts[tx], owner[tx] = commit, id
		}
	}

	// 2a. Copy agreement: a version is a per-item serialization point, so
	// two sites holding the same (item, version) must hold the same value.
	type stamped struct {
		val  int64
		site model.SiteID
	}
	byVersion := make(map[model.ItemID]map[model.Version]stamped)
	type copyAt struct {
		val int64
		ver model.Version
	}
	newest := make(map[model.ItemID]copyAt)
	for _, id := range sites {
		st, _ := in.Site(id)
		for item, cp := range st.Store().Snapshot() {
			if byVersion[item] == nil {
				byVersion[item] = make(map[model.Version]stamped)
			}
			if prev, seen := byVersion[item][cp.Version]; seen && prev.val != cp.Value {
				return fmt.Errorf("copy divergence on %s@v%d: %s has %d, %s has %d\n%s%s",
					item, cp.Version, prev.site, prev.val, id, cp.Value, dumpItem(in, sites, item),
					tracesOf(in, sites, itemWriters(in, item)))
			}
			byVersion[item][cp.Version] = stamped{val: cp.Value, site: id}
			if cur, ok := newest[item]; !ok || cp.Version > cur.ver {
				newest[item] = copyAt{val: cp.Value, ver: cp.Version}
			}
		}
	}

	// 2b. No committed write lost: every history write event is an install
	// of a committed transaction (the applier records before installing),
	// so the highest-version event per item must still be reachable — no
	// site may be "newest" with a version below it.
	for _, e := range in.History() {
		if e.Kind != model.OpWrite {
			continue
		}
		cur, ok := newest[e.Item]
		if !ok {
			return fmt.Errorf("committed write lost: %s@v%d (value %d) has no surviving copy\n%s",
				e.Item, e.Version, e.Value, tracesOf(in, sites, map[model.TxID]bool{e.Tx: true}))
		}
		if e.Version > cur.ver {
			return fmt.Errorf("committed write lost: %s@v%d (value %d) newer than every surviving copy (max v%d)\n%s",
				e.Item, e.Version, e.Value, cur.ver, tracesOf(in, sites, map[model.TxID]bool{e.Tx: true}))
		}
		if e.Version == cur.ver && e.Value != cur.val {
			return fmt.Errorf("committed write diverged: %s@v%d history says %d, newest copy says %d\n%s",
				e.Item, e.Version, e.Value, cur.val, tracesOf(in, sites, map[model.TxID]bool{e.Tx: true}))
		}
	}

	// 2c. Quorum audit read: a fresh transaction's read quorum intersects
	// the newest write's write quorum, so it must return the newest value.
	// Stragglers from the workload can hold locks briefly; retry.
	ops := make([]model.Op, 0, len(itemIDs))
	for _, item := range itemIDs {
		ops = append(ops, model.Read(item))
	}
	// The window must outlast the release-retry backoff (internal/site
	// releaseAt: five 1s-bounded attempts) under the race detector's
	// slowdown — a straggler's locks can legitimately take seconds to die.
	var out model.Outcome
	deadline := time.Now().Add(12 * time.Second)
	for {
		out = in.Submit(context.Background(), sites[0], ops)
		if out.Committed || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !out.Committed {
		return fmt.Errorf("final audit read would not commit: %+v", out)
	}
	for _, item := range itemIDs {
		want, ok := newest[item]
		if !ok {
			continue
		}
		if got := out.Reads[item]; got != want.val {
			return fmt.Errorf("quorum read of %s = %d, want newest committed value %d (v%d)\n%s",
				item, got, want.val, want.ver, tracesOf(in, sites, itemWriters(in, item)))
		}
	}
	return nil
}
