package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/monitor"
	"repro/internal/wire"
)

// metricDecl declares one reported metric. BENCHMARK.json lists the same
// names and units; a test keeps the two in step.
type metricDecl struct {
	name, unit string
	// better is "higher" or "lower".
	better string
	// moves is the end-to-end metric, on a workload, that a change in this
	// per-layer metric should move.
	moves string
}

// endToEnd is measured on the untraced window.
var endToEnd = []metricDecl{
	{name: "goodput_tps", unit: "1/s", better: "higher"},
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "p95_ms", unit: "ms", better: "lower"},
	{name: "read_p50_ms", unit: "ms", better: "lower"},
	{name: "cpu_us_per_tx", unit: "us", better: "lower"},
	{name: "retained_b_per_tx", unit: "B", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// sentKinds are the message kinds the ledger counts one by one; every
// other kind is counted under wire.sent.other_per_tx.
var sentKinds = []wire.MsgKind{
	wire.KindReadCopy, wire.KindPreWrite, wire.KindReleaseTx,
	wire.KindPrepare, wire.KindVote, wire.KindDecision, wire.KindAck,
	wire.KindEndTx, wire.KindError,
}

func sentMetric(k wire.MsgKind) string {
	return "wire.sent." + strings.ToLower(k.String()) + "_per_tx"
}

// perLayer is measured on the traced window. "Per tx" is per committed
// client transaction; "ktx" is a thousand of them.
var perLayer = append([]metricDecl{
	{"site.explained_pct", "%", "higher", "p50_ms, all workloads: op + prepare + decide time as a share of exec time"},
	{"rcp.round_trips_per_tx", "count", "lower", "p50_ms, p95_ms @ uniform-rw; goodput_tps @ hot-add (by hand)"},
	{"rcp.op_us_p50", "us", "lower", "p50_ms, p95_ms @ uniform-rw; goodput_tps @ hot-add (by hand)"},
	{"rcp.op_us_p99", "us", "lower", "p50_ms, p95_ms @ uniform-rw; goodput_tps @ hot-add (by hand)"},
	{"tcpnet.env_per_tx", "count", "lower", "cpu_us_per_tx, p95_ms @ uniform-rw"},
	{"tcpnet.bytes_per_tx", "B", "lower", "cpu_us_per_tx, p95_ms @ uniform-rw"},
	{"tcpnet.env_per_flush", "count", "higher", "cpu_us_per_tx, p95_ms @ uniform-rw"},
	{"tcpnet.queue_us_p99", "us", "lower", "cpu_us_per_tx, p95_ms @ uniform-rw"},
	{"tcpnet.flush_us_mean", "us", "lower", "cpu_us_per_tx, p95_ms @ uniform-rw"},
	{"tcpnet.gob_bodies", "count", "lower", "none: 0 once warm-up has negotiated the binary codec"},
	{"wire.send_us_mean", "us", "lower", "p50_ms, cpu_us_per_tx @ uniform-rw"},
	{"wire.recv_us_mean", "us", "lower", "p50_ms, cpu_us_per_tx @ uniform-rw"},
	{"pipeline.queue_us_p50", "us", "lower", "p95_ms @ uniform-rw; p99 @ contended-rw (by hand)"},
	{"pipeline.queue_us_p99", "us", "lower", "p95_ms @ uniform-rw; p99 @ contended-rw (by hand)"},
	{"pipeline.batch_mean", "count", "higher", "p95_ms @ uniform-rw; p99 @ contended-rw (by hand)"},
	{"pipeline.spills_per_ktx", "count", "lower", "p95_ms @ uniform-rw; p99 @ contended-rw (by hand)"},
	{"pipeline.stalls", "count", "lower", "p95_ms @ uniform-rw; p99 @ contended-rw (by hand)"},
	{"cc.admit_us_mean", "us", "lower", "cpu_us_per_tx @ uniform-rw"},
	{"cc.abort_pct", "%", "lower", "goodput_tps @ contended-rw (by hand)"},
	{"cc.restarts_per_tx", "count", "lower", "goodput_tps @ contended-rw (by hand)"},
	{"cc.split_add_pct", "%", "higher", "goodput_tps @ hot-add (by hand)"},
	{"cc.splits", "count", "higher", "goodput_tps @ hot-add (by hand)"},
	{"cc.drains", "count", "lower", "goodput_tps @ hot-add (by hand)"},
	{"lock.waits_per_ktx", "count", "lower", "p95_ms @ checkpoint-write; p99, goodput_tps @ contended-rw (by hand)"},
	{"lock.wait_ms_per_tx", "ms", "lower", "p95_ms @ checkpoint-write; p99, goodput_tps @ contended-rw (by hand)"},
	{"lock.wait_ms_p99", "ms", "lower", "p95_ms @ checkpoint-write; p99, goodput_tps @ contended-rw (by hand)"},
	{"lock.long_waits_per_ktx", "count", "lower", "p99, goodput_tps @ contended-rw (by hand): waits over 262 ms, mostly the 500 ms timeout"},
	{"acp.prepare_us_p50", "us", "lower", "p50_ms @ checkpoint-write"},
	{"acp.prepare_us_p99", "us", "lower", "p50_ms @ checkpoint-write"},
	{"acp.decide_us_p50", "us", "lower", "p50_ms @ checkpoint-write"},
	{"acp.decide_us_p99", "us", "lower", "p50_ms @ checkpoint-write"},
	{"wal.append_us_p50", "us", "lower", "p50_ms @ checkpoint-write and durable-write (by hand); nothing @ uniform-rw"},
	{"wal.append_us_p99", "us", "lower", "p50_ms @ checkpoint-write and durable-write (by hand); nothing @ uniform-rw"},
	{"wal.appends_per_tx", "count", "lower", "p50_ms, goodput_tps @ checkpoint-write"},
	{"wal.bytes_per_tx", "B", "lower", "p50_ms, goodput_tps @ checkpoint-write"},
	{"wal.records_per_flush", "count", "higher", "p50_ms, goodput_tps @ durable-write (by hand)"},
	{"wal.fsync_us_p50", "us", "lower", "p50_ms, goodput_tps @ durable-write (by hand); about 1 us on the in-memory WAL"},
	{"wal.fsync_us_p99", "us", "lower", "p50_ms, goodput_tps @ durable-write (by hand); about 1 us on the in-memory WAL"},
	{"wal.retained_mb", "MiB", "lower", "retained_b_per_tx @ uniform-rw, whose in-memory WAL is never checkpointed"},
	{"checkpoint.saves", "count", "higher", "p95_ms @ checkpoint-write"},
	{"checkpoint.save_ms_mean", "ms", "lower", "p95_ms @ checkpoint-write"},
	{"checkpoint.pause_us", "us", "lower", "p95_ms @ checkpoint-write"},
	{"storage.shard_skew", "ratio", "lower", "p95_ms @ hot-add (by hand)"},
	{"history.events_per_tx", "count", "lower", "retained_b_per_tx, cpu_us_per_tx, all workloads"},
	{"go.alloc_b_per_tx", "B", "lower", "cpu_us_per_tx, p95_ms @ uniform-rw"},
	{"go.gc_per_ktx", "count", "lower", "cpu_us_per_tx, p95_ms @ uniform-rw"},
	{"go.gomaxprocs", "count", "higher", "none: the machine the result was measured on"},
	{"go.nproc", "count", "higher", "none: the machine the result was measured on"},
	{"trace.overhead_pct", "%", "lower", "none: goodput_tps lost to tracing, must stay small"},
}, sentDecls()...)

func sentDecls() []metricDecl {
	var out []metricDecl
	for _, k := range sentKinds {
		out = append(out, metricDecl{sentMetric(k), "count", "lower", "p50_ms, cpu_us_per_tx @ uniform-rw"})
	}
	return append(out, metricDecl{"wire.sent.other_per_tx", "count", "lower", "p50_ms, cpu_us_per_tx @ uniform-rw"})
}

// endToEndValues computes the end-to-end metrics of an untraced window.
func endToEndValues(m *window, setup time.Duration) map[string]float64 {
	committed := float64(m.committed())
	all := latencies(m.p.done, false)
	reads := latencies(m.p.done, true)
	if len(reads) == 0 {
		// hot-add runs no read-only transactions; there the metric is
		// the median of all its transactions.
		reads = all
	}
	return map[string]float64{
		"goodput_tps":       m.goodput(),
		"p50_ms":            percentileMS(all, 0.50),
		"p95_ms":            percentileMS(all, 0.95),
		"read_p50_ms":       percentileMS(reads, 0.50),
		"cpu_us_per_tx":     us(m.cpu) / committed,
		"retained_b_per_tx": float64(m.retained) / committed,
		"setup_s":           setup.Seconds(),
	}
}

func latencies(txs []txRecord, readOnly bool) []time.Duration {
	var out []time.Duration
	for _, t := range txs {
		if t.readOnly || !readOnly {
			out = append(out, t.lat)
		}
	}
	return out
}

// ledgerValues computes the per-layer metrics of a traced window; plain is
// the untraced window of the same workload and seed.
func ledgerValues(m, plain *window) map[string]float64 {
	tx := float64(m.committed())
	ktx := tx / 1000
	st := m.total.Stages
	stage := func(name string) *monitor.Histogram {
		h := st[name]
		return &h
	}
	exec, op, prep, dec := stage("exec"), stage("op"), stage("prepare"), stage("decide")
	lock := stage("lock_wait")
	var longWaits uint64
	for b := longWaitBucket; b < monitor.NumBuckets; b++ {
		longWaits += lock.Buckets[b]
	}
	var skew, pauseNS float64
	var paused int
	for _, s := range m.sites {
		skew += s.ShardSkew()
		if s.CheckpointPauseNS > 0 {
			pauseNS += float64(s.CheckpointPauseNS)
			paused++
		}
	}
	wp := &m.probes.wire
	appends := m.probes.appends.snapshot()
	saves := m.probes.saves.snapshot()

	v := map[string]float64{
		"site.explained_pct":      100 * ratio(float64(op.SumNS+prep.SumNS+dec.SumNS), float64(exec.SumNS)),
		"rcp.round_trips_per_tx":  float64(m.total.RoundTrips) / tx,
		"rcp.op_us_p50":           us(op.Quantile(0.50)),
		"rcp.op_us_p99":           us(op.Quantile(0.99)),
		"tcpnet.env_per_tx":       float64(m.net.SentEnvelopes) / tx,
		"tcpnet.bytes_per_tx":     float64(m.net.SentBytes) / tx,
		"tcpnet.env_per_flush":    ratio(float64(m.net.SentEnvelopes), float64(m.net.SentFlushes)),
		"tcpnet.queue_us_p99":     us(stage("net_queue").Quantile(0.99)),
		"tcpnet.flush_us_mean":    us(stage("net_flush").Mean()),
		"tcpnet.gob_bodies":       float64(m.net.SentGobBodies),
		"wire.send_us_mean":       ratio(float64(wp.sendNS.Load()), float64(wp.sends.Load())) / 1e3,
		"wire.recv_us_mean":       ratio(float64(wp.recvNS.Load()), float64(wp.recvs.Load())) / 1e3,
		"pipeline.queue_us_p50":   us(stage("queue").Quantile(0.50)),
		"pipeline.queue_us_p99":   us(stage("queue").Quantile(0.99)),
		"pipeline.batch_mean":     m.total.PipeBatchSize(),
		"pipeline.spills_per_ktx": float64(m.total.PipeSpills) / ktx,
		"pipeline.stalls":         float64(m.total.PipeStalls),
		"cc.admit_us_mean":        us(stage("admit").Mean()),
		"cc.abort_pct":            100 * float64(m.p.ccAborts) / float64(m.p.attempts),
		"cc.restarts_per_tx":      float64(m.p.restarts) / tx,
		"cc.split_add_pct":        100 * ratio(float64(m.total.CCSplitAdds), float64(m.total.CCAdds)),
		"cc.splits":               float64(m.total.CCSplits),
		"cc.drains":               float64(m.total.CCDrains),
		"lock.waits_per_ktx":      float64(lock.Count) / ktx,
		"lock.wait_ms_per_tx":     float64(lock.SumNS) / 1e6 / tx,
		"lock.wait_ms_p99":        ms(lock.Quantile(0.99)),
		"lock.long_waits_per_ktx": float64(longWaits) / ktx,
		"acp.prepare_us_p50":      us(prep.Quantile(0.50)),
		"acp.prepare_us_p99":      us(prep.Quantile(0.99)),
		"acp.decide_us_p50":       us(dec.Quantile(0.50)),
		"acp.decide_us_p99":       us(dec.Quantile(0.99)),
		"wal.append_us_p50":       us(appends.Quantile(0.50)),
		"wal.append_us_p99":       us(appends.Quantile(0.99)),
		"wal.appends_per_tx":      float64(appends.Count) / tx,
		"wal.bytes_per_tx":        float64(m.walAppended) / tx,
		"wal.records_per_flush":   m.total.WALBatchSize(),
		"wal.fsync_us_p50":        us(stage("wal_fsync").Quantile(0.50)),
		"wal.fsync_us_p99":        us(stage("wal_fsync").Quantile(0.99)),
		"wal.retained_mb":         float64(m.walRetained) / (1 << 20),
		"checkpoint.saves":        float64(saves.Count),
		"checkpoint.save_ms_mean": ms(saves.Mean()),
		"checkpoint.pause_us":     ratio(pauseNS, float64(paused)) / 1e3,
		"storage.shard_skew":      skew / float64(len(m.sites)),
		"history.events_per_tx":   m.eventsPerTx,
		"go.alloc_b_per_tx":       float64(m.alloc) / tx,
		"go.gc_per_ktx":           float64(m.gcs) / ktx,
		"go.gomaxprocs":           float64(runtime.GOMAXPROCS(0)),
		"go.nproc":                float64(runtime.NumCPU()),
		"trace.overhead_pct":      100 * (plain.goodput() - m.goodput()) / plain.goodput(),
	}
	other := float64(wp.sends.Load())
	for _, k := range sentKinds {
		n := float64(wp.sent[k].Load())
		v[sentMetric(k)] = n / tx
		other -= n
	}
	v["wire.sent.other_per_tx"] = other / tx
	return v
}

// longWaitBucket is the first histogram bucket whose samples all exceed
// 2^18 µs ≈ 262 ms: lock waits that long almost always end in the 500 ms
// lock timeout rather than a grant.
const longWaitBucket = 19

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
