package soak

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// soakWorkers bounds concurrent soak iterations: runs are sleep-dominated,
// so overlapping them compresses wall time even on a single core.
func soakWorkers() int {
	w := runtime.GOMAXPROCS(0) * 4
	if w > 8 {
		w = 8
	}
	return w
}

// runSeeds drains the seed list through a worker pool and reports every
// failing seed with a replay command that reproduces the SAME profile —
// round count and workload shape feed the seeded plan, so a replay with
// different options would explore a different schedule entirely. It
// returns how many seeds ran under each deadlock policy.
func runSeeds(t *testing.T, seeds []int64, opts Options) map[string]int {
	t.Helper()
	o := opts.withDefaults()
	replayCmd := fmt.Sprintf(
		"RAINBOW_SOAK_SEED=%%d RAINBOW_SOAK_ROUNDS=%d RAINBOW_SOAK_TX=%d RAINBOW_SOAK_MPL=%d go test ./internal/soak -run TestSoakReplay -v",
		o.Rounds, o.TxPerRound, o.MPL)
	type failure struct {
		seed int64
		err  error
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		fail     []failure
		ok       int
		policies = make(map[string]int)
	)
	ch := make(chan int64)
	for w := 0; w < soakWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range ch {
				o := opts
				o.Seed = seed
				rep, err := Run(o)
				mu.Lock()
				if err != nil {
					fail = append(fail, failure{seed, err})
				} else {
					ok++
				}
				policies[rep.Deadlock]++
				mu.Unlock()
			}
		}()
	}
	for _, s := range seeds {
		ch <- s
	}
	close(ch)
	wg.Wait()
	for _, f := range fail {
		t.Errorf("seed %d: %v\n  replay: "+replayCmd, f.seed, f.err, f.seed)
	}
	t.Logf("soak: %d/%d seeds passed (deadlock policies %v)", ok, len(seeds), policies)
	return policies
}

// TestSoakShortSeeded is the CI profile: 75 fixed seeds (15 under -short),
// each a full load + partitions/crashes/epoch-bumps episode with the
// invariant audit. The count was raised from 50 when crash/partition
// injection was extended into 3PC episodes (quorum termination roughly
// doubled the schedule space the fixed seeds must cover). A failing seed
// prints its replay command.
func TestSoakShortSeeded(t *testing.T) {
	n := 75
	if testing.Short() {
		n = 15
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(1000 + i)
	}
	policies := runSeeds(t, seeds, Options{})
	if policies["wait-die"] == 0 || policies["detect"] == 0 {
		t.Errorf("deadlock policies drawn %v: the serializability audit must run under both wait-die and detect", policies)
	}
}

// TestSoakLong is the nightly/bench-job profile: random seeds (logged for
// replay), bigger episodes, ~60s budget. Enabled by RAINBOW_SOAK_LONG=1 so
// it never blocks the regular test job.
func TestSoakLong(t *testing.T) {
	if os.Getenv("RAINBOW_SOAK_LONG") == "" {
		t.Skip("set RAINBOW_SOAK_LONG=1 to run the long soak profile")
	}
	base := time.Now().UnixNano()
	t.Logf("long soak base seed: %d", base)
	deadline := time.Now().Add(60 * time.Second)
	batch := 0
	for time.Now().Before(deadline) {
		seeds := make([]int64, soakWorkers())
		for i := range seeds {
			seeds[i] = base + int64(batch*len(seeds)+i)
		}
		runSeeds(t, seeds, Options{Rounds: 4, TxPerRound: 12, MPL: 4})
		if t.Failed() {
			return
		}
		batch++
	}
	t.Logf("long soak: %d batches completed", batch)
}

// TestSoakReplay re-runs one seed verbosely: the debugging entry point the
// short/long profiles print on failure. The profile env vars must match
// the originating run's (the failure message carries them); unset values
// fall back to the short-profile defaults.
//
//	RAINBOW_SOAK_SEED=<seed> [RAINBOW_SOAK_ROUNDS=r RAINBOW_SOAK_TX=n RAINBOW_SOAK_MPL=m] \
//	  go test ./internal/soak -run TestSoakReplay -v
func TestSoakReplay(t *testing.T) {
	env := os.Getenv("RAINBOW_SOAK_SEED")
	if env == "" {
		t.Skip("set RAINBOW_SOAK_SEED=<seed> to replay a failing soak seed")
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("RAINBOW_SOAK_SEED=%q: %v", env, err)
	}
	envInt := func(name string) int {
		v := os.Getenv(name)
		if v == "" {
			return 0 // withDefaults fills it
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("%s=%q: %v", name, v, err)
		}
		return n
	}
	opts := Options{
		Seed:       seed,
		Rounds:     envInt("RAINBOW_SOAK_ROUNDS"),
		TxPerRound: envInt("RAINBOW_SOAK_TX"),
		MPL:        envInt("RAINBOW_SOAK_MPL"),
		Logf:       t.Logf,
	}
	rep, err := Run(opts)
	t.Logf("report: %+v", rep)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// TestSoakReportCountsEvents sanity-checks the harness itself: a run must
// actually submit load and plan events, not vacuously pass.
func TestSoakReportCountsEvents(t *testing.T) {
	rep, err := Run(Options{Seed: 42, Logf: t.Logf})
	if err != nil {
		t.Fatalf("seed 42: %v\n  replay: RAINBOW_SOAK_SEED=42 go test ./internal/soak -run TestSoakReplay -v", err)
	}
	if rep.Submitted == 0 || rep.Committed == 0 {
		t.Errorf("vacuous run: %+v", rep)
	}
	if rep.Adds == 0 || rep.AddsCommitted == 0 {
		t.Errorf("counter storm vacuous — the exact-sum audit checked nothing: %+v", rep)
	}
	if rep.EpochBumps+rep.Crashes+rep.Partitions+rep.Checkpoints == 0 {
		t.Errorf("no faults planned: %+v", rep)
	}
	if rep.ACP != "2pc" && rep.ACP != "3pc" {
		t.Errorf("ACP = %q", rep.ACP)
	}
	if rep.Deadlock != "wait-die" && rep.Deadlock != "detect" {
		t.Errorf("Deadlock = %q", rep.Deadlock)
	}
	_ = fmt.Sprintf("%+v", rep)
}
