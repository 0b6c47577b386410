// Package main_test is Rainbow's benchmark harness: one benchmark per
// experiment in EXPERIMENTS.md (E1–E9), each regenerating a paper artifact
// — the Figure-5 output panel, the Section-3 statistics, the quorum
// message-traffic study, the protocol matrix of Figure 4, the replication /
// availability panel of Figure A-1, and the network-simulator sweeps.
//
// Run all experiments once:
//
//	go test -bench=. -benchtime=1x -benchmem
//
// Each benchmark prints its table (go test -v shows it interleaved) and
// reports the headline numbers as bench metrics so `benchstat` can compare
// runs.
package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acp"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/quorum"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/site"
	"repro/internal/storage"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/wlg"
)

// benchTimeouts keeps protocol waits short so contention resolves quickly
// under benchmark load.
var benchTimeouts = schema.Timeouts{
	Op: 500 * time.Millisecond, Vote: 500 * time.Millisecond,
	Ack: 300 * time.Millisecond, Lock: 150 * time.Millisecond,
	OrphanResolve: 50 * time.Millisecond,
}

// benchNet is the default simulated LAN: 200µs base, 100µs jitter.
var benchNet = simnet.Config{BaseLatency: 200 * time.Microsecond, Jitter: 100 * time.Microsecond}

func siteIDs(n int) []model.SiteID {
	out := make([]model.SiteID, n)
	for i := range out {
		out[i] = model.SiteID(fmt.Sprintf("S%d", i+1))
	}
	return out
}

func nItems(n int) map[model.ItemID]int64 {
	items := make(map[model.ItemID]int64, n)
	for i := 0; i < n; i++ {
		items[model.ItemID(fmt.Sprintf("i%02d", i))] = 100
	}
	return items
}

func newBenchInstance(b *testing.B, sites int, items int, protocols schema.Protocols, net simnet.Config) *core.Instance {
	b.Helper()
	inst, err := core.New(core.Options{
		Sites:     siteIDs(sites),
		Items:     nItems(items),
		Protocols: protocols,
		Timeouts:  benchTimeouts,
		Net:       net,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(inst.Close)
	return inst
}

// BenchmarkE1_TxProcessingOutput regenerates Figure 5: the full §3
// statistics panel for the default QC+2PL+2PC configuration.
func BenchmarkE1_TxProcessingOutput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		inst := newBenchInstance(b, 3, 8, schema.Protocols{RCP: "qc", CCP: "2pl", ACP: "2pc"}, benchNet)
		res := inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 200, MPL: 4, OpsPerTx: 4, ReadFraction: 0.75, Retries: 3,
		})
		rep := inst.Report()
		tot := rep.Totals()
		if i == 0 {
			b.Logf("\n%s", rep.Render())
		}
		b.ReportMetric(res.CommitRate(), "commit-rate")
		b.ReportMetric(res.Throughput(), "tx/s")
		b.ReportMetric(rep.MessagesPerCommit(), "msg/commit")
		b.ReportMetric(float64(tot.Orphans), "orphans")
		b.ReportMetric(rep.LoadImbalance(), "load-cv")
		b.ReportMetric(float64(tot.Latency.Mean().Microseconds()), "mean-µs")
		if err := inst.CheckSerializable(core.CommittedSet(res.Outcomes)); err != nil {
			b.Fatalf("serializability: %v", err)
		}
		inst.Close()
	}
}

// BenchmarkE2_QuorumMessageTraffic regenerates the quorum-consensus
// message-traffic study (§3, ref [3]): msg/commit vs replication degree and
// vs read fraction, ROWA vs QC.
func BenchmarkE2_QuorumMessageTraffic(b *testing.B) {
	run := func(n int, rcpName string, readFraction float64) float64 {
		inst := newBenchInstance(b, n, 8, schema.Protocols{RCP: rcpName, CCP: "2pl", ACP: "2pc"}, benchNet)
		inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 120, MPL: 2, OpsPerTx: 4, ReadFraction: readFraction, Retries: 3,
		})
		m := inst.Report().MessagesPerCommit()
		inst.Close()
		return m
	}
	for i := 0; i < b.N; i++ {
		b.Log("copies  rowa-msg/tx  qc-msg/tx   (75% reads)")
		for _, n := range []int{1, 3, 5, 7} {
			rowa := run(n, "rowa", 0.75)
			qc := run(n, "qc", 0.75)
			if i == 0 {
				b.Logf("%6d %12.1f %10.1f", n, rowa, qc)
			}
			if n == 5 {
				b.ReportMetric(rowa, "rowa-n5-msg/tx")
				b.ReportMetric(qc, "qc-n5-msg/tx")
			}
		}
		b.Log("read%   rowa-msg/tx  qc-msg/tx   (5 copies)")
		for _, rf := range []float64{0.1, 0.5, 0.9} {
			rowa := run(5, "rowa", rf)
			qc := run(5, "qc", rf)
			if i == 0 {
				b.Logf("%5.0f%% %12.1f %10.1f", rf*100, rowa, qc)
			}
		}
	}
}

// BenchmarkE3_AbortBreakdown regenerates the per-cause abort statistics:
// CCP aborts vs MPL under 2PL and TSO, and RCP aborts under failure.
func BenchmarkE3_AbortBreakdown(b *testing.B) {
	run := func(ccp string, mpl int) wlg.Result {
		inst := newBenchInstance(b, 3, 4, schema.Protocols{RCP: "qc", CCP: ccp, ACP: "2pc"}, benchNet)
		res := inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 100, MPL: mpl, OpsPerTx: 4, ReadFraction: 0.5, Retries: 0, HotItems: 4,
		})
		inst.Close()
		return res
	}
	for i := 0; i < b.N; i++ {
		b.Log("mpl    2pl-abort%   tso-abort%  (no retries, 4-item hotspot)")
		for _, mpl := range []int{1, 4, 8, 16} {
			r2 := run("2pl", mpl)
			rt := run("tso", mpl)
			a2 := float64(r2.Aborted) / float64(r2.Submitted)
			at := float64(rt.Aborted) / float64(rt.Submitted)
			if i == 0 {
				b.Logf("%3d %11.2f %12.2f  (2pl causes %v, tso causes %v)", mpl, a2, at, r2.ByCause, rt.ByCause)
			}
			if mpl == 8 {
				b.ReportMetric(a2, "2pl-abort-rate-mpl8")
				b.ReportMetric(at, "tso-abort-rate-mpl8")
			}
		}
		// RCP aborts: ROWA writes with one site crashed.
		inst := newBenchInstance(b, 3, 4, schema.Protocols{RCP: "rowa", CCP: "2pl", ACP: "2pc"}, benchNet)
		inst.Injector.Crash("S3")
		res := inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 40, MPL: 2, OpsPerTx: 2, ReadFraction: 0.0001, Retries: 0,
			Sites: siteIDs(2),
		})
		if i == 0 {
			b.Logf("rowa writes with 1/3 sites down: aborted %d/%d, causes %v", res.Aborted, res.Submitted, res.ByCause)
		}
		b.ReportMetric(float64(res.ByCause[model.AbortRCP]), "rcp-aborts-under-failure")
		inst.Close()
	}
}

// BenchmarkE4_ThroughputResponse regenerates the throughput / response-time
// measures: closed-loop MPL sweep for the three CCPs.
func BenchmarkE4_ThroughputResponse(b *testing.B) {
	run := func(ccp string, mpl int) wlg.Result {
		inst := newBenchInstance(b, 3, 12, schema.Protocols{RCP: "qc", CCP: ccp, ACP: "2pc"}, benchNet)
		res := inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 150, MPL: mpl, OpsPerTx: 3, ReadFraction: 0.8, Retries: 3,
		})
		inst.Close()
		return res
	}
	for i := 0; i < b.N; i++ {
		for _, ccp := range []string{"2pl", "tso", "mvtso"} {
			b.Logf("%s:  mpl   tx/s   mean-latency   commit-rate", ccp)
			for _, mpl := range []int{1, 2, 4, 8, 16} {
				res := run(ccp, mpl)
				if i == 0 {
					b.Logf("    %4d %7.1f %12v %12.2f", mpl, res.Throughput(),
						res.MeanLatency().Round(time.Microsecond), res.CommitRate())
				}
				if mpl == 8 {
					b.ReportMetric(res.Throughput(), ccp+"-tx/s-mpl8")
				}
			}
		}
	}
}

// BenchmarkE5_FailureRecovery regenerates the fault-tolerance experiment:
// orphan transactions under coordinator failure, 2PC (blocking) vs 3PC
// (coordinator-less termination), plus QC vs ROWA availability.
func BenchmarkE5_FailureRecovery(b *testing.B) {
	// crashOnce fires a concurrent write burst at coordinator S1 and crashes
	// it mid-flight. Whether the crash lands inside the narrow
	// voted-but-undecided window is probabilistic, so crashRun retries until
	// orphans are actually stranded.
	attempt := 0
	crashOnce := func(acpName string) (orphans int, drainedWithoutCoord bool, drainAfterRecovery time.Duration) {
		inst := newBenchInstance(b, 3, 4, schema.Protocols{RCP: "qc", CCP: "2pl", ACP: acpName}, benchNet)
		defer inst.Close()
		ctx := context.Background()
		done := make(chan struct{})
		go func() {
			defer close(done)
			var wg sync.WaitGroup
			for i := 0; i < 12; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					item := model.ItemID(fmt.Sprintf("i%02d", i%4))
					inst.Submit(ctx, "S1", []model.Op{model.Write(item, int64(i))})
				}(i)
			}
			wg.Wait()
		}()
		time.Sleep(time.Duration(2+attempt%5) * time.Millisecond)
		inst.Injector.Crash("S1")
		<-done
		time.Sleep(200 * time.Millisecond)
		orphans = inst.Orphans()
		drainedWithoutCoord = inst.WaitOrphansDrained(1500 * time.Millisecond)
		start := time.Now()
		if err := inst.Injector.Recover("S1"); err != nil {
			b.Fatal(err)
		}
		if !inst.WaitOrphansDrained(10 * time.Second) {
			b.Fatalf("%s: orphans survived coordinator recovery", acpName)
		}
		return orphans, drainedWithoutCoord, time.Since(start)
	}
	crashRun := func(acpName string) (orphans int, drainedWithoutCoord bool, drainAfterRecovery time.Duration) {
		for attempt = 0; attempt < 8; attempt++ {
			orphans, drainedWithoutCoord, drainAfterRecovery = crashOnce(acpName)
			if orphans > 0 {
				return orphans, drainedWithoutCoord, drainAfterRecovery
			}
		}
		return orphans, drainedWithoutCoord, drainAfterRecovery
	}
	for i := 0; i < b.N; i++ {
		for _, acpName := range []string{"2pc", "3pc"} {
			orphans, drained, drainLat := crashRun(acpName)
			if i == 0 {
				b.Logf("%s: orphans-during-outage=%d drained-without-coordinator=%v post-recovery-drain=%v",
					acpName, orphans, drained, drainLat.Round(time.Millisecond))
			}
			tag := acpName + "-orphans"
			b.ReportMetric(float64(orphans), tag)
			if drained {
				b.ReportMetric(1, acpName+"-coordless-drain")
			} else {
				b.ReportMetric(0, acpName+"-coordless-drain")
			}
		}
		// Availability: QC vs ROWA with one of three sites down, 50% writes.
		for _, rcpName := range []string{"qc", "rowa"} {
			inst := newBenchInstance(b, 3, 4, schema.Protocols{RCP: rcpName, CCP: "2pl", ACP: "2pc"}, benchNet)
			inst.Injector.Crash("S3")
			res := inst.RunWorkload(context.Background(), wlg.Profile{
				Transactions: 60, MPL: 3, OpsPerTx: 2, ReadFraction: 0.5, Retries: 2,
				Sites: siteIDs(2),
			})
			if i == 0 {
				b.Logf("%s commit rate with 1/3 sites down: %.2f (causes %v)", rcpName, res.CommitRate(), res.ByCause)
			}
			b.ReportMetric(res.CommitRate(), rcpName+"-commit-rate-1down")
			inst.Close()
		}
	}
}

// BenchmarkE6_ProtocolMatrix regenerates Figure 4's promise: every
// RCP × CCP × ACP combination runs the same workload.
func BenchmarkE6_ProtocolMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.Log("protocols              commit%   tx/s  msg/commit")
		for _, rcpName := range []string{"rowa", "qc"} {
			for _, ccpName := range []string{"2pl", "tso", "mvtso"} {
				for _, acpName := range []string{"2pc", "3pc"} {
					inst := newBenchInstance(b, 3, 8,
						schema.Protocols{RCP: rcpName, CCP: ccpName, ACP: acpName}, benchNet)
					res := inst.RunWorkload(context.Background(), wlg.Profile{
						Transactions: 120, MPL: 4, OpsPerTx: 4, ReadFraction: 0.75, Retries: 3,
					})
					rep := inst.Report()
					name := rcpName + "/" + ccpName + "/" + acpName
					if i == 0 {
						b.Logf("%-22s %6.1f%% %6.1f %8.1f", name,
							100*res.CommitRate(), res.Throughput(), rep.MessagesPerCommit())
					}
					if res.CommitRate() < 0.5 {
						b.Errorf("%s: commit rate %.2f — matrix cell broken", name, res.CommitRate())
					}
					if err := inst.CheckSerializable(core.CommittedSet(res.Outcomes)); err != nil {
						b.Errorf("%s: %v", name, err)
					}
					inst.Close()
				}
			}
		}
	}
}

// BenchmarkE7_ReplicationAvailability regenerates Figure A-1: the vote /
// quorum configuration table with closed-form availability, validated by a
// measured run with one site down.
func BenchmarkE7_ReplicationAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.Log("n    p      qc-read  qc-write  rowa-read  rowa-write")
		for _, n := range []int{3, 5, 7} {
			sites := siteIDs(n)
			qc := quorum.Majority(sites)
			rowa := quorum.ReadOneWriteAll(sites)
			for _, p := range []float64{0.5, 0.9, 0.99} {
				if i == 0 {
					b.Logf("%d %6.2f %8.3f %9.3f %10.3f %11.3f", n, p,
						qc.ReadAvailability(p), qc.WriteAvailability(p),
						rowa.ReadAvailability(p), rowa.WriteAvailability(p))
				}
				if n == 5 && p == 0.9 {
					b.ReportMetric(qc.WriteAvailability(p), "qc-write-avail-n5-p90")
					b.ReportMetric(rowa.WriteAvailability(p), "rowa-write-avail-n5-p90")
				}
			}
		}
		// Measured validation: commit rates with one of five sites down.
		for _, rcpName := range []string{"qc", "rowa"} {
			inst := newBenchInstance(b, 5, 4, schema.Protocols{RCP: rcpName, CCP: "2pl", ACP: "2pc"}, benchNet)
			inst.Injector.Crash("S5")
			res := inst.RunWorkload(context.Background(), wlg.Profile{
				Transactions: 50, MPL: 2, OpsPerTx: 2, ReadFraction: 0.5, Retries: 2,
				Sites: siteIDs(4),
			})
			if i == 0 {
				b.Logf("measured %s commit rate, 1/5 down: %.2f", rcpName, res.CommitRate())
			}
			b.ReportMetric(res.CommitRate(), rcpName+"-measured-1of5down")
			inst.Close()
		}
	}
}

// BenchmarkE8_ManualWorkload regenerates Figure A-2: manual transaction
// composition and submission, measuring single-transaction latency and
// message cost with and without local copies.
func BenchmarkE8_ManualWorkload(b *testing.B) {
	// Custom catalog: item "loc" has a copy at S1, item "rem" does not.
	cat := schema.NewCatalog()
	for _, id := range siteIDs(3) {
		cat.Sites[id] = schema.SiteInfo{ID: id}
	}
	cat.PlaceCopies("loc", 10, "S1", "S2", "S3")
	cat.PlaceCopies("rem", 20, "S2", "S3")
	cat.Timeouts = benchTimeouts
	inst, err := core.New(core.Options{Catalog: cat, Net: benchNet})
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()
	ctx := context.Background()

	specsLocal := []wlg.Manual{{Kind: "r", Item: "loc"}, {Kind: "w", Item: "loc", Value: 1}}
	specsRemote := []wlg.Manual{{Kind: "r", Item: "rem"}, {Kind: "w", Item: "rem", Value: 1}}

	measure := func(specs []wlg.Manual) (time.Duration, float64) {
		inst.ResetStats()
		const reps = 20
		var lat time.Duration
		for j := 0; j < reps; j++ {
			out, err := inst.SubmitManual(ctx, "S1", specs)
			if err != nil || !out.Committed {
				b.Fatalf("manual tx failed: %+v %v", out, err)
			}
			lat += time.Duration(out.LatencyNS)
		}
		msgs := float64(inst.Net.Stats().Delivered) / reps
		return lat / reps, msgs
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		latLocal, msgsLocal := measure(specsLocal)
		latRemote, msgsRemote := measure(specsRemote)
		if i == 0 {
			b.Logf("manual tx with local copy:   %v, %.1f msgs", latLocal.Round(time.Microsecond), msgsLocal)
			b.Logf("manual tx remote-only item:  %v, %.1f msgs", latRemote.Round(time.Microsecond), msgsRemote)
		}
		b.ReportMetric(float64(latLocal.Microseconds()), "local-µs/tx")
		b.ReportMetric(float64(latRemote.Microseconds()), "remote-µs/tx")
		b.ReportMetric(msgsLocal, "local-msgs/tx")
		b.ReportMetric(msgsRemote, "remote-msgs/tx")
		if msgsRemote <= msgsLocal {
			b.Errorf("remote-only tx (%f msgs) should cost more than local (%f)", msgsRemote, msgsLocal)
		}
	}
}

// BenchmarkE9_NetworkSimulation regenerates the network-simulator
// experiment: commit rate and response time vs injected latency and loss.
func BenchmarkE9_NetworkSimulation(b *testing.B) {
	run := func(net simnet.Config) wlg.Result {
		inst := newBenchInstance(b, 3, 8, schema.Protocols{RCP: "qc", CCP: "2pl", ACP: "2pc"}, net)
		res := inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 60, MPL: 3, OpsPerTx: 3, ReadFraction: 0.75, Retries: 2,
		})
		inst.Close()
		return res
	}
	for i := 0; i < b.N; i++ {
		b.Log("latency    commit%   mean-latency")
		for _, lat := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
			res := run(simnet.Config{BaseLatency: lat})
			if i == 0 {
				b.Logf("%8v %8.1f%% %12v", lat, 100*res.CommitRate(), res.MeanLatency().Round(time.Microsecond))
			}
			if lat == 5*time.Millisecond {
				b.ReportMetric(float64(res.MeanLatency().Microseconds()), "mean-µs-at-5ms")
			}
		}
		b.Log("droprate   commit%   (no retransmission: loss maps to aborts)")
		for _, drop := range []float64{0, 0.01, 0.05, 0.20} {
			res := run(simnet.Config{DropRate: drop})
			if i == 0 {
				b.Logf("%7.0f%% %8.1f%%  causes %v", drop*100, 100*res.CommitRate(), res.ByCause)
			}
			if drop == 0.20 {
				b.ReportMetric(res.CommitRate(), "commit-rate-20pct-drop")
			}
		}
	}
}

// ---- Ablation benches (design choices called out in DESIGN.md) ----

// BenchmarkA1_DeadlockHandlingAblation compares 2PL's three deadlock
// policies on an upgrade-deadlock-prone hotspot: wait-die aborts the
// younger side of every conflict at request time (no deadlock can form),
// waits-for-graph detection aborts a victim once a local cycle closes, and
// timeout-only stalls every deadlocked transaction for the full lock
// timeout.
func BenchmarkA1_DeadlockHandlingAblation(b *testing.B) {
	run := func(policy string) wlg.Result {
		inst := newBenchInstance(b, 3, 4, schema.Protocols{
			RCP: "qc", CCP: "2pl", ACP: "2pc", Deadlock: policy,
		}, benchNet)
		res := inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 80, MPL: 6, OpsPerTx: 3, ReadFraction: 0.5, Retries: 4, HotItems: 2,
		})
		inst.Close()
		return res
	}
	for i := 0; i < b.N; i++ {
		for _, policy := range []string{"wait-die", "detect", "timeout"} {
			res := run(policy)
			if i == 0 {
				b.Logf("%-9s %6.1f tx/s, mean %v, commit %.2f",
					policy+":", res.Throughput(), res.MeanLatency().Round(time.Microsecond), res.CommitRate())
			}
			b.ReportMetric(res.Throughput(), policy+"-tx/s")
			b.ReportMetric(float64(res.MeanLatency().Microseconds()), policy+"-mean-µs")
		}
	}
}

// BenchmarkA2_RetryPolicyAblation sweeps the workload generator's restart
// budget on a contended workload: goodput (committed work) rises with
// retries while raw submission cost grows — the knob every classroom
// assignment about abort handling turns.
func BenchmarkA2_RetryPolicyAblation(b *testing.B) {
	run := func(retries int) wlg.Result {
		inst := newBenchInstance(b, 3, 4, schema.Protocols{RCP: "qc", CCP: "2pl", ACP: "2pc"}, benchNet)
		res := inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 80, MPL: 6, OpsPerTx: 3, ReadFraction: 0.5, Retries: retries, HotItems: 2,
		})
		inst.Close()
		return res
	}
	for i := 0; i < b.N; i++ {
		b.Log("retries   commit%   restarts")
		for _, r := range []int{0, 1, 3, 8} {
			res := run(r)
			if i == 0 {
				b.Logf("%7d %8.1f%% %9d", r, 100*res.CommitRate(), res.Restarts)
			}
			if r == 0 {
				b.ReportMetric(res.CommitRate(), "commit-rate-no-retries")
			}
			if r == 8 {
				b.ReportMetric(res.CommitRate(), "commit-rate-8-retries")
			}
		}
	}
}

// BenchmarkA3_ReadOnlyOptAblation measures the presumed-abort read-only
// participant optimization: commit-protocol message savings on a read-heavy
// workload (read-only quorum members skip phase 2 entirely).
func BenchmarkA3_ReadOnlyOptAblation(b *testing.B) {
	run := func(disable bool) float64 {
		inst := newBenchInstance(b, 3, 8, schema.Protocols{
			RCP: "qc", CCP: "2pl", ACP: "2pc", NoReadOnlyOpt: disable,
		}, benchNet)
		inst.RunWorkload(context.Background(), wlg.Profile{
			Transactions: 120, MPL: 2, OpsPerTx: 4, ReadFraction: 0.9, Retries: 3,
		})
		m := inst.Report().MessagesPerCommit()
		inst.Close()
		return m
	}
	for i := 0; i < b.N; i++ {
		with := run(false)
		without := run(true)
		if i == 0 {
			b.Logf("msg/commit with read-only opt: %.1f, without: %.1f", with, without)
		}
		b.ReportMetric(with, "msg/commit-with-ro-opt")
		b.ReportMetric(without, "msg/commit-without-ro-opt")
		if with >= without {
			b.Errorf("read-only optimization did not reduce messages: %.1f vs %.1f", with, without)
		}
	}
}

// ---- Data-plane microbenchmarks (sharding / group-commit tentpole) ----
//
// Each benchmark runs the same parallel workload against a shard count of 1
// (the pre-sharding global-mutex design) and the GOMAXPROCS-derived default,
// so benchstat shows the contention win directly.

// benchShardCounts returns the ablation points: the single-shard baseline
// and a fixed sharded configuration (plus the host default when larger),
// so the comparison exists even on single-core CI runners. The extra point
// is capped at lock.MaxShards so the label matches the stripe count the
// lock manager actually normalizes to.
func benchShardCounts() []int {
	out := []int{1, 8}
	if def := storage.DefaultShards(); def > 8 {
		if def > lock.MaxShards {
			def = lock.MaxShards
		}
		out = append(out, def)
	}
	return out
}

// forceParallelism raises GOMAXPROCS to at least n for the benchmark (a
// no-op on multicore hardware): on small CI runners the OS then timeslices
// several threads over the cores, so critical sections really do get
// preempted and lock contention — the thing these benchmarks measure —
// exists at all.
func forceParallelism(b *testing.B, n int) {
	old := runtime.GOMAXPROCS(0)
	if old >= n {
		return
	}
	runtime.GOMAXPROCS(n)
	b.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// BenchmarkStorageContention measures parallel copy reads and version-
// guarded installs across the store's shards.
func BenchmarkStorageContention(b *testing.B) {
	const nItems = 1024
	items := make(map[model.ItemID]int64, nItems)
	ids := make([]model.ItemID, nItems)
	for i := range ids {
		ids[i] = model.ItemID(fmt.Sprintf("i%04d", i))
		items[ids[i]] = 0
	}
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st := storage.NewSharded(shards)
			st.Init(items)
			var ctr atomic.Uint64
			forceParallelism(b, 8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := ctr.Add(1)
					item := ids[n%nItems]
					if n%4 == 0 {
						st.Apply([]model.WriteRecord{{Item: item, Value: int64(n), Version: model.Version(n)}})
					} else {
						st.Get(item)
					}
				}
			})
		})
	}
}

// BenchmarkLockContention measures parallel two-item transactions (S or X,
// acquired in global order, then ReleaseAll) across the lock-table stripes.
func BenchmarkLockContention(b *testing.B) {
	const nItems = 1024
	ids := make([]model.ItemID, nItems)
	for i := range ids {
		ids[i] = model.ItemID(fmt.Sprintf("i%04d", i))
	}
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			// Detect: every request here is eventually granted (global
			// order), so the bench times grants and waits, not aborts.
			m := lock.New(lock.Options{Timeout: 5 * time.Second, Shards: shards, Policy: lock.Detect})
			var ctr atomic.Uint64
			ctx := context.Background()
			forceParallelism(b, 8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := ctr.Add(1)
					id := model.TxID{Site: "B", Seq: n}
					i, j := n%nItems, (n*31+17)%nItems
					if i > j {
						i, j = j, i // global lock order
					}
					mode := lock.Shared
					if n%4 == 0 {
						mode = lock.Exclusive
					}
					ts := model.Timestamp{Time: n, Site: "B"}
					if err := m.Acquire(ctx, id, ts, ids[i], mode); err == nil && j != i {
						m.Acquire(ctx, id, ts, ids[j], mode)
					}
					m.ReleaseAll(id)
				}
			})
		})
	}
}

// BenchmarkWALGroupCommit measures parallel Prepared-record forces against
// a synced segmented log: "direct" is the pre-group-commit design (one
// write/flush/fsync per append under a mutex), "group" parks concurrent
// appenders on the committer and pays one force per batch.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts wal.SegmentOptions
	}{
		{"direct", wal.SegmentOptions{Sync: true, NoGroupCommit: true}},
		{"group", wal.SegmentOptions{Sync: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			l, err := wal.OpenSegmented(b.TempDir(), mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Uint64
			forceParallelism(b, 8)
			b.SetParallelism(4) // many concurrent committers per core
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := ctr.Add(1)
					err := l.Append(wal.Record{
						Type:   wal.RecPrepared,
						Tx:     model.TxID{Site: "B", Seq: n},
						Writes: []model.WriteRecord{{Item: "x", Value: int64(n), Version: model.Version(n)}},
					})
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			flushes, records := l.BatchStats()
			if flushes > 0 {
				b.ReportMetric(float64(records)/float64(flushes), "recs/flush")
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---- Durability microbenchmarks (checkpoint / segmented-WAL tentpole) ----

// BenchmarkWALAppend measures single-appender record encoding + write cost
// on the segmented log (no fsync, no group commit: encoding and framing are
// the variables).
func BenchmarkWALAppend(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		l, err := wal.OpenSegmented(b.TempDir(), wal.SegmentOptions{
			NoGroupCommit: true, SegmentBytes: 64 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		rec := wal.Record{
			Type:         wal.RecPrepared,
			Tx:           model.TxID{Site: "S1", Seq: 1},
			TS:           model.Timestamp{Time: 42, Site: "S1"},
			Coordinator:  "S1",
			Participants: []model.SiteID{"S1", "S2", "S3"},
			Writes: []model.WriteRecord{
				{Item: "item-a", Value: 12345, Version: 7},
				{Item: "item-b", Value: -9876, Version: 8},
			},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Tx.Seq = uint64(i + 1)
			if err := l.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(l.AppendedBytes())/float64(b.N), "B/rec")
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	})
}

// ckptBenchStore builds an n-item store over the given shard count and
// classifies the item ids per shard, so benchmarks can dirty an exact
// number of shards.
func ckptBenchStore(b *testing.B, nItems, shards int) (*storage.Store, [][]model.ItemID) {
	b.Helper()
	items := make(map[model.ItemID]int64, nItems)
	perShard := make([][]model.ItemID, shards)
	for i := 0; i < nItems; i++ {
		id := model.ItemID(fmt.Sprintf("i%07d", i))
		items[id] = 0
		idx := int(shard.Hash(id) & uint32(shards-1))
		perShard[idx] = append(perShard[idx], id)
	}
	st := storage.NewSharded(shards)
	st.Init(items)
	for idx, ids := range perShard {
		if len(ids) == 0 {
			b.Fatalf("shard %d received no items; enlarge the item pool", idx)
		}
	}
	return st, perShard
}

// ckptAdvance commits one write per target shard through the log and store,
// so the next checkpoint has exactly len(targets) dirty shards and a fresh
// horizon to pin.
func ckptAdvance(b *testing.B, st *storage.Store, l wal.Log, perShard [][]model.ItemID, targets []int, version uint64) {
	b.Helper()
	for _, idx := range targets {
		id := perShard[idx][0]
		w := []model.WriteRecord{{Item: id, Value: int64(version), Version: model.Version(version)}}
		tx := model.TxID{Site: "B", Seq: version*uint64(len(perShard)) + uint64(idx)}
		if err := l.Append(wal.Record{Type: wal.RecPrepared, Tx: tx, Coordinator: "B", Writes: w}); err != nil {
			b.Fatal(err)
		}
		if err := l.Append(wal.Record{Type: wal.RecDecision, Tx: tx, Commit: true}); err != nil {
			b.Fatal(err)
		}
		if err := st.Apply(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint measures one checkpoint's cost as a function of how
// many shards are dirty: a full snapshot copies the whole store every time
// (cost tracks store size), a delta copies only the dirty shards (cost
// tracks the write rate). The snap-items metric shows the captured volume
// directly.
func BenchmarkCheckpoint(b *testing.B) {
	const shards = 64
	for _, nItems := range []int{65536, 262144} {
		for _, mode := range []struct {
			name  string
			dirty int // shards written per checkpoint interval
			pol   checkpoint.Policy
		}{
			{"full", 4, checkpoint.Policy{Retain: 2}},
			{"delta-dirty=4", 4, checkpoint.Policy{Retain: 2, DeltaMax: 1 << 30}},
			{"delta-dirty=32", 32, checkpoint.Policy{Retain: 2, DeltaMax: 1 << 30}},
		} {
			b.Run(fmt.Sprintf("items=%d/%s", nItems, mode.name), func(b *testing.B) {
				st, perShard := ckptBenchStore(b, nItems, shards)
				l := wal.NewMemory()
				mgr := checkpoint.NewManager(st, l, checkpoint.NewMemStore(), nil, mode.pol)
				targets := make([]int, mode.dirty)
				for i := range targets {
					targets[i] = (i * shards) / mode.dirty
				}
				// Untimed warmup checkpoint: seeds the chain so delta modes
				// measure deltas, not the initial full snapshot.
				ckptAdvance(b, st, l, perShard, targets, 1)
				if err := mgr.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ckptAdvance(b, st, l, perShard, targets, uint64(i+2))
					if err := mgr.Checkpoint(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				cs := mgr.Stats()
				b.ReportMetric(float64(cs.LastItems), "snap-items")
				b.ReportMetric(float64(cs.LastDirtyShards), "dirty-shards")
				b.ReportMetric(float64(cs.LastPause), "pause-ns")
			})
		}
	}
}

// BenchmarkCheckpointPause measures the decision-pipeline stall a
// checkpoint causes at a large (1M-item) store: the wall time the snapshot
// gate is held. "nocow" is the pre-COW design (the whole capture is copied
// under the gate); "cow" seals the dirty shards under the gate and copies
// after releasing it, so the pause is O(shards) instead of O(data) — the
// pause-ns metric is the acceptance number (≥10x lower under cow).
func BenchmarkCheckpointPause(b *testing.B) {
	const nItems = 1_000_000
	const shards = 256
	for _, mode := range []struct {
		name string
		pol  checkpoint.Policy
	}{
		{"nocow", checkpoint.Policy{Retain: 2, NoCOW: true}},
		{"cow", checkpoint.Policy{Retain: 2, DeltaMax: 1 << 30}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			st, perShard := ckptBenchStore(b, nItems, shards)
			l := wal.NewMemory()
			mgr := checkpoint.NewManager(st, l, checkpoint.NewMemStore(), nil, mode.pol)
			targets := []int{0, 64, 128, 192} // modest write rate between checkpoints
			ckptAdvance(b, st, l, perShard, targets, 1)
			if err := mgr.Checkpoint(); err != nil { // warmup: chain seed
				b.Fatal(err)
			}
			var maxPause time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ckptAdvance(b, st, l, perShard, targets, uint64(i+2))
				if err := mgr.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				if p := mgr.Stats().LastPause; p > maxPause {
					maxPause = p
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(maxPause), "pause-ns")
			b.ReportMetric(float64(mgr.Stats().LastItems), "snap-items")
		})
	}
}

// BenchmarkRecovery measures a site store's crash-recovery path: full
// WAL-history replay (the pre-checkpoint design) vs snapshot-plus-tail
// recovery after checkpoints compacted the log. The replayed-recs metric
// shows the bounded-recovery win directly.
func BenchmarkRecovery(b *testing.B) {
	const txns = 2000
	items := map[model.ItemID]int64{"x": 0}
	populate := func(b *testing.B, dir string, checkpoints bool) {
		b.Helper()
		l, err := wal.OpenSegmented(dir, wal.SegmentOptions{SegmentBytes: 8 << 10, NoGroupCommit: true})
		if err != nil {
			b.Fatal(err)
		}
		st := storage.NewSharded(0)
		st.Init(items)
		mgr := checkpoint.NewManager(st, l, checkpoint.NewDirStore(dir), nil, checkpoint.Policy{})
		ckptAt := map[int]bool{txns / 2: true, txns: true}
		for i := 1; i <= txns; i++ {
			tx := model.TxID{Site: "S1", Seq: uint64(i)}
			w := []model.WriteRecord{{Item: "x", Value: int64(i), Version: model.Version(i)}}
			if err := l.Append(wal.Record{Type: wal.RecPrepared, Tx: tx, Coordinator: "S1", Writes: w}); err != nil {
				b.Fatal(err)
			}
			if err := l.Append(wal.Record{Type: wal.RecDecision, Tx: tx, Commit: true}); err != nil {
				b.Fatal(err)
			}
			if err := st.Apply(w); err != nil {
				b.Fatal(err)
			}
			if checkpoints && ckptAt[i] {
				if err := mgr.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name        string
		checkpoints bool
	}{
		{"full-replay", false},
		{"from-checkpoint", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			populate(b, dir, mode.checkpoints)
			snaps := checkpoint.NewDirStore(dir)
			var replayed int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := wal.OpenSegmented(dir, wal.SegmentOptions{})
				if err != nil {
					b.Fatal(err)
				}
				snap, err := checkpoint.Latest(snaps)
				if err != nil {
					b.Fatal(err)
				}
				recs, err := l.ReadAll()
				if err != nil {
					b.Fatal(err)
				}
				var snapItems map[model.ItemID]storage.Copy
				var horizon uint64
				if snap != nil {
					snapItems, horizon = snap.Items, snap.Horizon
				}
				st := storage.NewSharded(0)
				if _, err := st.RecoverRecords(items, snapItems, horizon, recs); err != nil {
					b.Fatal(err)
				}
				if c, _ := st.Get("x"); c.Value != txns {
					b.Fatalf("recovered x = %+v, want %d", c, txns)
				}
				replayed = len(recs)
				if err := l.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(replayed), "replayed-recs")
		})
	}
}

// BenchmarkReconfigure measures one live catalog reconfiguration of a
// loaded site: epoch bump, decision-pipeline quiesce, forced full snapshot
// at the current horizon, protocol-stack rebuild into a different shard
// count, store restore — no restart, no lost data. The cost is O(store):
// the forced snapshot plus the rebuild's restore dominate, which is why the
// item-count subcases scale near-linearly.
func BenchmarkReconfigure(b *testing.B) {
	for _, n := range []int{16384, 65536} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			cat := schema.NewCatalog()
			cat.Sites["S1"] = schema.SiteInfo{ID: "S1"}
			for i := 0; i < n; i++ {
				cat.PlaceCopies(model.ItemID(fmt.Sprintf("i%06d", i)), int64(i), "S1")
			}
			cat.Timeouts = benchTimeouts
			net := simnet.New(benchNet)
			st, err := site.New(site.Config{ID: "S1", Net: net, Catalog: cat})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			// A little committed work so the forced snapshot covers a real
			// horizon, not just initial values.
			ctx := context.Background()
			for v := int64(1); v <= 32; v++ {
				if out := st.Execute(ctx, []model.Op{model.Write("i000000", v)}); !out.Committed {
					b.Fatalf("seed write: %+v", out)
				}
			}
			epoch := st.Epoch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := st.Catalog().Clone()
				epoch++
				next.Epoch = epoch
				next.Shards = 4 << (i % 2) // alternate 4 and 8
				if err := st.Reconfigure(next); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if out := st.Execute(ctx, []model.Op{model.Read("i000000")}); !out.Committed || out.Reads["i000000"] != 32 {
				b.Fatalf("post-bench read = %+v, want 32", out)
			}
			b.ReportMetric(float64(n), "items")
			b.ReportMetric(float64(st.Reconfigures()), "reconfigs")
		})
	}
}

// termBench wires three acp.Participants into both halves of the protocol
// over direct calls (no network), with a decision-drop switch that
// simulates the coordinator crashing right after the pre-commit round —
// the schedule quorum termination exists for.
type termBench struct {
	participants  map[model.SiteID]*acp.Participant
	sites         []model.SiteID
	dropDecisions atomic.Bool
	down          map[model.SiteID]*atomic.Bool
}

type termApplier struct{}

func (termApplier) Commit(model.TxID, []model.WriteRecord) error { return nil }
func (termApplier) Abort(model.TxID)                             {}

func newTermBench(n int) *termBench {
	tb := &termBench{
		participants: make(map[model.SiteID]*acp.Participant),
		down:         make(map[model.SiteID]*atomic.Bool),
	}
	for i := 0; i < n; i++ {
		id := model.SiteID(fmt.Sprintf("S%d", i+1))
		tb.sites = append(tb.sites, id)
		tb.participants[id] = acp.NewParticipant(id, wal.NewMemory(), termApplier{})
		tb.down[id] = &atomic.Bool{}
	}
	return tb
}

func (tb *termBench) reachable(site model.SiteID) error {
	if tb.down[site].Load() {
		return fmt.Errorf("site %s down", site)
	}
	return nil
}

// Deliver implements acp.Cohort; the coordinator is the first site.
func (tb *termBench) Deliver(_ context.Context, msg acp.Msg) acp.Reply {
	return tb.answer(tb.sites[0], msg)
}

// Post implements acp.Cohort, answering before it returns.
func (tb *termBench) Post(_ context.Context, site model.SiteID, msg acp.Msg, replies chan<- acp.Reply) (uint64, error) {
	r := tb.answer(site, msg)
	if msg.Phase == acp.PhaseEnd {
		return 0, nil
	}
	replies <- r
	return 1, nil
}

// Forget implements acp.Cohort.
func (tb *termBench) Forget(uint64) {}

func (tb *termBench) answer(site model.SiteID, msg acp.Msg) acp.Reply {
	r := acp.Reply{Site: site}
	if msg.Phase == acp.PhaseDecide && tb.dropDecisions.Load() {
		r.Err = fmt.Errorf("decision dropped")
		return r
	}
	if r.Err = tb.reachable(site); r.Err != nil {
		return r
	}
	p := tb.participants[site]
	switch msg.Phase {
	case acp.PhasePrepare:
		r.Vote = p.HandlePrepare(msg.Prepare)
	case acp.PhasePreCommit:
		r.Err = p.HandlePreCommit(msg.Tx)
	case acp.PhaseDecide:
		r.Err = p.HandleDecision(msg.Tx, msg.Commit)
	case acp.PhaseEnd:
		p.Retire(msg.Tx)
	}
	return r
}

func (tb *termBench) QueryDecision(_ context.Context, site model.SiteID, tx model.TxID, _ bool) (bool, bool, error) {
	if err := tb.reachable(site); err != nil {
		return false, false, err
	}
	commit, known := tb.participants[site].Decision(tx)
	return known, commit, nil
}

func (tb *termBench) QueryTermination(_ context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot) (wire.TermQueryResp, error) {
	if err := tb.reachable(site); err != nil {
		return wire.TermQueryResp{}, err
	}
	return tb.participants[site].HandleTermQuery(tx, ballot), nil
}

func (tb *termBench) SendPreDecide(_ context.Context, site model.SiteID, tx model.TxID, ballot model.Ballot, commit bool) (wire.TermPreDecideResp, error) {
	if err := tb.reachable(site); err != nil {
		return wire.TermPreDecideResp{}, err
	}
	return tb.participants[site].HandlePreDecide(tx, ballot, commit), nil
}

func (tb *termBench) SendDecision(_ context.Context, site model.SiteID, tx model.TxID, commit bool) error {
	if err := tb.reachable(site); err != nil {
		return err
	}
	return tb.participants[site].HandleDecision(tx, commit)
}

// BenchmarkThreePCTermination measures the quorum-terminated 3PC paths:
// the fault-free commit round (vote + durable pre-commit quorum + decision)
// and the one-crash path (coordinator lost after pre-commit; a surviving
// member runs the election / pre-decision / decision quorums to
// completion). Recorded in BENCH_baseline.json and gated by benchdiff.
func BenchmarkThreePCTermination(b *testing.B) {
	request := func(tb *termBench, seq uint64) acp.Request {
		return acp.Request{
			Tx:           model.TxID{Site: tb.sites[0], Seq: seq},
			TS:           model.Timestamp{Time: seq, Site: tb.sites[0]},
			Coordinator:  tb.sites[0],
			Participants: tb.sites,
			Voters:       tb.sites,
			WritesFor: func(model.SiteID) []model.WriteRecord {
				return []model.WriteRecord{{Item: "x", Value: int64(seq), Version: model.Version(seq)}}
			},
		}
	}
	opts := acp.Options{Vote: time.Second, Ack: time.Second}

	b.Run("fault-free", func(b *testing.B) {
		tb := newTermBench(3)
		log := wal.NewMemory()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			commit, err := (acp.ThreePC{}).Commit(context.Background(), tb, log, opts, request(tb, uint64(i+1)), nil)
			if err != nil || !commit {
				b.Fatalf("commit = %v, %v", commit, err)
			}
		}
	})

	b.Run("one-crash", func(b *testing.B) {
		tb := newTermBench(3)
		log := wal.NewMemory()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := request(tb, uint64(i+1))
			// The decision broadcast is lost (coordinator crash after the
			// pre-commit round): every member is left in doubt.
			tb.dropDecisions.Store(true)
			commit, err := (acp.ThreePC{}).Commit(context.Background(), tb, log, opts, req, nil)
			if err != nil || !commit {
				b.Fatalf("commit = %v, %v", commit, err)
			}
			tb.dropDecisions.Store(false)
			// The coordinator stays down; a surviving member terminates.
			tb.down[req.Coordinator].Store(true)
			if !tb.participants[tb.sites[1]].Resolve(context.Background(), tb, req.Tx) {
				b.Fatal("quorum termination failed")
			}
			tb.down[req.Coordinator].Store(false)
			// Drain the remaining members so per-iteration state is flat.
			for _, s := range tb.sites {
				tb.participants[s].Resolve(context.Background(), tb, req.Tx)
			}
		}
	})
}

// BenchmarkNetBatching measures the coalescing TCP sender: parallel pings
// between two peers over a real loopback socket. batch=1 flushes one
// buffered write (≈ one syscall) per envelope — the pre-coalescing design;
// batch=128 lets the writer goroutine drain its whole queue into
// multi-envelope frames. env/flush is the measured
// envelopes-per-write-syscall ratio.
func BenchmarkNetBatching(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts tcpnet.Options
	}{
		{"batch=1", tcpnet.Options{MaxBatch: 1}},
		{"batch=128", tcpnet.Options{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			net := tcpnet.NewWithOptions(map[model.SiteID]string{}, mode.opts)
			srv, err := wire.NewPeer(net, "S1",
				func(model.SiteID, trace.ID, wire.MsgKind, wire.Payload) (wire.MsgKind, wire.Body, error) {
					return wire.KindOK, &wire.OKBody{}, nil
				})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cli, err := wire.NewPeer(net, "C1", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()

			ctx := context.Background()
			forceParallelism(b, 8)
			// Coalescing needs concurrent outstanding calls: closed-loop
			// clients are synchronous, so parallelism is the batch the
			// writer goroutine can actually drain per flush.
			b.SetParallelism(16)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					var resp wire.OKBody
					if err := cli.Call(ctx, "S1", wire.KindPing, &wire.PingReq{}, &resp); err != nil {
						b.Error(err)
						return
					}
				}
			})
			if st := net.NetStats(); st.SentFlushes > 0 {
				b.ReportMetric(float64(st.SentEnvelopes)/float64(st.SentFlushes), "env/flush")
				b.ReportMetric(float64(st.SentBytes)/float64(st.SentFlushes), "B/flush")
			}
		})
	}
}

// BenchmarkWireCodec prices one binary body encode or decode per
// message-body class. Recorded in BENCH_baseline.json; CI gates ns/op and
// allocs/op against it.
func BenchmarkWireCodec(b *testing.B) {
	tx := model.TxID{Site: "S1", Seq: 42}
	ts := model.Timestamp{Time: 7_000_000, Site: "S2"}
	classes := []struct {
		name  string
		body  wire.Body
		fresh func() wire.Body
	}{
		{"ReadCopyReq",
			&wire.ReadCopyReq{Tx: tx, TS: ts, Item: "item-x"},
			func() wire.Body { return &wire.ReadCopyReq{} }},
		{"ReadCopyResp",
			&wire.ReadCopyResp{Value: -12, Version: 3, Clock: 99, Incarnation: 4},
			func() wire.Body { return &wire.ReadCopyResp{} }},
		{"PreWriteReq",
			&wire.PreWriteReq{Tx: tx, TS: ts, Item: "item-y", Value: 1 << 40},
			func() wire.Body { return &wire.PreWriteReq{} }},
		{"PrepareReq",
			&wire.PrepareReq{
				Tx: tx, TS: ts, Coordinator: "S1",
				Writes:       []model.WriteRecord{{Item: "a", Value: 1, Version: 2}, {Item: "b", Value: -3, Version: 4}},
				Participants: []model.SiteID{"S1", "S2", "S3"},
				ThreePhase:   true, Epoch: 6,
				Voters: []model.SiteID{"S1", "S2", "S3"}, Incarnation: 2,
			},
			func() wire.Body { return &wire.PrepareReq{} }},
		{"VoteResp",
			&wire.VoteResp{Yes: true},
			func() wire.Body { return &wire.VoteResp{} }},
		{"DecisionMsg",
			&wire.DecisionMsg{Tx: tx, Commit: true},
			func() wire.Body { return &wire.DecisionMsg{} }},
		{"TermQueryResp",
			&wire.TermQueryResp{Accepted: true, EA: model.Ballot{N: 9, Site: "S3"}, State: 2, Decided: true, Commit: true},
			func() wire.Body { return &wire.TermQueryResp{} }},
		{"SubmitTxResp",
			&wire.SubmitTxResp{Outcome: model.Outcome{
				Tx: tx, Committed: true, LatencyNS: 123456,
				Reads:    map[model.ItemID]int64{"r1": 5, "r2": -6},
				HomeSite: "S1",
			}},
			func() wire.Body { return &wire.SubmitTxResp{} }},
	}
	for _, c := range classes {
		binEnc := c.body.AppendTo(nil)
		b.Run(c.name+"/encode-binary", func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = c.body.AppendTo(buf[:0])
			}
		})
		b.Run(c.name+"/decode-binary", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.fresh().DecodeFrom(binEnc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
