// Package monitor implements Rainbow's progress monitor (the PM in PMlet):
// per-site transaction statistics, latency histograms, cluster aggregation,
// and the rendering of the paper's "Tx processing output" panel (Figure 5)
// with the full Section-3 statistics list — committed/aborted counts, abort
// rates per cause (RCP/ACP/CCP), commit rate, message traffic per time
// unit, throughput, response times, orphan transactions, round-trip
// message counts, and load balance indicators.
package monitor

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
)

// histBuckets is the number of power-of-two latency buckets, covering
// 1µs (bucket 0) to ~9h (bucket 44).
const histBuckets = 45

// Histogram is a fixed log2-bucket latency histogram. The zero value is
// ready to use.
type Histogram struct {
	Count   uint64
	SumNS   uint64
	MaxNS   uint64
	Buckets [histBuckets]uint64
}

func bucketOf(ns int64) int {
	if ns < 1000 {
		return 0
	}
	b := 0
	for v := uint64(ns) / 1000; v > 0 && b < histBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// Observe adds one latency sample.
func (h *Histogram) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Count++
	h.SumNS += uint64(ns)
	if uint64(ns) > h.MaxNS {
		h.MaxNS = uint64(ns)
	}
	h.Buckets[bucketOf(ns)]++
}

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNS / h.Count)
}

// BucketUpperNS returns bucket b's upper edge in nanoseconds (1µs << b).
// Exported for metrics renderers that need the exposition-format edges.
func BucketUpperNS(b int) uint64 { return uint64(1000) << uint(b) }

// NumBuckets is the fixed bucket count of every Histogram.
const NumBuckets = histBuckets

// Quantile estimates the q-quantile (0 < q ≤ 1) by locating the bucket
// containing the target rank and interpolating linearly within it, assuming
// samples spread uniformly across the bucket. The estimate never exceeds
// the observed maximum, so tail quantiles of a one-sample histogram report
// that sample's bucket-resolution value rather than a whole bucket above.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+n < target {
			cum += n
			continue
		}
		// Rank `target` falls in bucket b. Interpolate between the bucket's
		// edges; bucket 0's lower edge is 0 (it holds sub-1µs samples).
		upper := float64(BucketUpperNS(b))
		lower := upper / 2
		if b == 0 {
			lower = 0
		}
		frac := float64(target-cum) / float64(n)
		est := lower + frac*(upper-lower)
		if uint64(est) > h.MaxNS {
			est = float64(h.MaxNS)
		}
		return time.Duration(est)
	}
	return time.Duration(h.MaxNS)
}

// Merge adds other into h.
func (h *Histogram) Merge(other Histogram) {
	h.Count += other.Count
	h.SumNS += other.SumNS
	if other.MaxNS > h.MaxNS {
		h.MaxNS = other.MaxNS
	}
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// SiteStats is a serializable snapshot of one site's counters.
type SiteStats struct {
	Site      model.SiteID
	Began     uint64
	Committed uint64
	Aborted   uint64
	// AbortsByCause keys abort counts by model.AbortCause.String().
	AbortsByCause map[string]uint64
	// Restarts counts workload-level restarts after CC rejections.
	Restarts uint64
	// RoundTrips counts request/response exchanges this site initiated.
	RoundTrips uint64
	// Orphans is the current number of in-doubt (blocked) transactions.
	Orphans int
	// Latency is the response-time distribution of finished transactions.
	Latency Histogram
	// WindowNS is the observation window covered by the counters.
	WindowNS int64
	// Shards is the site's data-plane shard count (storage shards and lock
	// stripes).
	Shards int
	// WALFlushes and WALRecords count WAL force-write cycles and the
	// records they carried; records/flushes is the group-commit batch size.
	WALFlushes uint64
	WALRecords uint64
	// WALSegments and WALBytes gauge the retained log volume (compaction
	// shrinks both).
	WALSegments int
	WALBytes    uint64
	// Checkpoints counts completed checkpoints and SegmentsCompacted the
	// WAL segments deleted by them in the window; CheckpointDeltas is how
	// many of the checkpoints were incremental (dirty-shards-only) deltas.
	Checkpoints       uint64
	CheckpointDeltas  uint64
	SegmentsCompacted uint64
	// CheckpointHorizon is the newest snapshot's replay horizon and
	// CheckpointPauseNS how long taking it stalled the decision pipeline
	// (the snapshot-gate hold); DirtyShards gauges the store shards dirtied
	// since that snapshot — the size of the next delta.
	CheckpointHorizon uint64
	CheckpointPauseNS int64
	DirtyShards       int
	// Decisions is the decision table's current size; retirement on fully
	// acknowledged cohorts keeps it from growing without bound.
	Decisions int
	// RecoveryRecords is the number of WAL records the site's last
	// (re)start replayed and RecoveryNS how long recovery took — the
	// bounded-recovery measures (full-history replay grows without bound;
	// checkpointed replay stays near the bytes-since-last-checkpoint knob).
	RecoveryRecords uint64
	RecoveryNS      int64
	// Epoch is the catalog version the site currently runs, and
	// Reconfigures how many live (no-restart) catalog reconfigurations it
	// has completed — the online re-sharding gauges.
	Epoch        uint64
	Reconfigures uint64
	// StoreShards carries per-shard occupancy and traffic, for spotting
	// hash skew across the sharded store.
	StoreShards []ShardStat
	// Per-shard command-pipeline gauges (all zero when the pipeline is
	// disabled). PipeDepth is the operations queued right now across all
	// sequencers; PipeSubmitted/PipeBatches give the mean admit batch size;
	// PipeMaxBatch is the largest batch drained; PipeStalls counts Submits
	// that found their queue full (backpressure), PipeSpills contended
	// operations that left their sequencer for a blocking-path goroutine.
	PipeDepth     int
	PipeSubmitted uint64
	PipeBatches   uint64
	PipeMaxBatch  uint64
	PipeStalls    uint64
	PipeSpills    uint64
	// Hot-key split-execution gauges (2PL only; zero elsewhere). CCAdds
	// counts blind-add intents admitted, CCSplitAdds the subset admitted
	// lock-free through a split slot, CCSplits/CCDrains the items moved
	// into resp. out of split execution, and SplitItems the items split
	// right now.
	CCAdds      uint64
	CCSplitAdds uint64
	CCSplits    uint64
	CCDrains    uint64
	SplitItems  int
	// CC waits and give-ups, one field per path a copy operation can give
	// up on: CCWaits counts requests that had to wait (lock queues, TSO
	// intent gates, spinning blind adds); CCWaitDies the 2PL requests
	// aborted by wait-die for being younger; CCDeadlocks the 2PL requests
	// aborted for closing a waits-for cycle (detect policy);
	// CCLockTimeouts the waits that ran into the lock timeout — under
	// wait-die a safety net that should read 0; CCRejections the TSO/MVTSO
	// operations rejected for arriving too late in timestamp order.
	CCWaits        uint64
	CCWaitDies     uint64
	CCDeadlocks    uint64
	CCLockTimeouts uint64
	CCRejections   uint64
	// ReleasesAbandoned counts release-retry loops that exhausted their
	// attempts and left remote CC cleanup to the presumed-abort janitor.
	ReleasesAbandoned uint64
	// Coalescing-transport gauges (filled under the tcpnet backend; zero on
	// the simulated network). Envelopes per flush is the send-syscall
	// amortization; NetRecvFrames counts decoded multi-envelope frames;
	// NetSendSheds counts sends dropped under backpressure; NetSentBytes
	// counts framed bytes written (the bytes/flush numerator).
	NetSentEnvelopes uint64
	NetSendFlushes   uint64
	NetRecvEnvelopes uint64
	NetRecvFrames    uint64
	NetSendSheds     uint64
	NetSentBytes     uint64
	// Stages holds per-stage latency histograms keyed by trace stage name
	// (queue, admit, lock_wait, wal_fsync, prepare, net_flush, ...): the
	// always-on aggregates plus the folded spans of sampled traces. Empty
	// stages are omitted.
	Stages map[string]Histogram
	// Trace sampling gauges: transactions sampled, completed fragments
	// retained, fragments evicted from the bounded ring, and root traces
	// over the slow threshold.
	TraceSampled   uint64
	TraceFragments uint64
	TraceEvicted   uint64
	TraceSlow      uint64
}

// PipeBatchSize returns the mean pipeline admit-batch size (operations per
// drained batch).
func (s SiteStats) PipeBatchSize() float64 {
	if s.PipeBatches == 0 {
		return 0
	}
	return float64(s.PipeSubmitted) / float64(s.PipeBatches)
}

// NetCoalescing returns the mean envelopes per transport flush (the send
// syscalls saved by the coalescing sender).
func (s SiteStats) NetCoalescing() float64 {
	if s.NetSendFlushes == 0 {
		return 0
	}
	return float64(s.NetSentEnvelopes) / float64(s.NetSendFlushes)
}

// NetBytesPerFlush returns the mean framed bytes per transport flush (how
// full each coalesced write is).
func (s SiteStats) NetBytesPerFlush() float64 {
	if s.NetSendFlushes == 0 {
		return 0
	}
	return float64(s.NetSentBytes) / float64(s.NetSendFlushes)
}

// ShardStat mirrors one storage shard's occupancy and traffic counters.
type ShardStat struct {
	Items    int
	Hits     uint64
	Installs uint64
}

// ShardSkew returns the coefficient of variation of per-shard lookup
// traffic (0 = perfectly uniform hashing; rising values flag hot shards).
func (s SiteStats) ShardSkew() float64 {
	if len(s.StoreShards) == 0 {
		return 0
	}
	mean := 0.0
	for _, sh := range s.StoreShards {
		mean += float64(sh.Hits)
	}
	mean /= float64(len(s.StoreShards))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, sh := range s.StoreShards {
		d := float64(sh.Hits) - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(s.StoreShards))) / mean
}

// ShardOccupancy returns the min and max per-shard item counts.
func (s SiteStats) ShardOccupancy() (min, max int) {
	for i, sh := range s.StoreShards {
		if i == 0 || sh.Items < min {
			min = sh.Items
		}
		if sh.Items > max {
			max = sh.Items
		}
	}
	return min, max
}

// WALBatchSize returns the mean group-commit batch size (records per
// force-write cycle).
func (s SiteStats) WALBatchSize() float64 {
	if s.WALFlushes == 0 {
		return 0
	}
	return float64(s.WALRecords) / float64(s.WALFlushes)
}

// CommitRate returns committed / began.
func (s SiteStats) CommitRate() float64 {
	if s.Began == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Began)
}

// Throughput returns committed transactions per second over the window.
func (s SiteStats) Throughput() float64 {
	if s.WindowNS <= 0 {
		return 0
	}
	return float64(s.Committed) / (float64(s.WindowNS) / 1e9)
}

// Collector gathers one site's statistics. All methods are safe for
// concurrent use.
type Collector struct {
	site model.SiteID

	mu      sync.Mutex
	began   uint64
	commits uint64
	aborts  map[model.AbortCause]uint64
	restart uint64
	rtts    uint64
	lat     Histogram
	start   time.Time
}

// NewCollector builds a collector for site, starting its window now.
func NewCollector(site model.SiteID) *Collector {
	return &Collector{site: site, aborts: make(map[model.AbortCause]uint64), start: time.Now()}
}

// TxBegin counts an admitted transaction.
func (c *Collector) TxBegin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.began++
}

// TxDone counts a finished transaction and its latency.
func (c *Collector) TxDone(committed bool, cause model.AbortCause, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if committed {
		c.commits++
	} else {
		c.aborts[cause]++
	}
	c.lat.Observe(int64(latency))
}

// TxRestart counts a workload-level restart (a CC-rejected transaction
// resubmitted with a fresh timestamp).
func (c *Collector) TxRestart() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.restart++
}

// AddRoundTrips counts n request/response exchanges.
func (c *Collector) AddRoundTrips(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rtts += uint64(n)
}

// Snapshot returns the current counters; orphans is sampled by the caller
// (it lives in the ACP participant).
func (c *Collector) Snapshot(orphans int) SiteStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := SiteStats{
		Site:          c.site,
		Began:         c.began,
		Committed:     c.commits,
		Aborted:       0,
		AbortsByCause: make(map[string]uint64, len(c.aborts)),
		Restarts:      c.restart,
		RoundTrips:    c.rtts,
		Orphans:       orphans,
		Latency:       c.lat,
		WindowNS:      int64(time.Since(c.start)),
	}
	for cause, n := range c.aborts {
		s.Aborted += n
		s.AbortsByCause[cause.String()] = n
	}
	return s
}

// Reset zeroes the counters and restarts the window.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.began, c.commits, c.restart, c.rtts = 0, 0, 0, 0
	c.aborts = make(map[model.AbortCause]uint64)
	c.lat = Histogram{}
	c.start = time.Now()
}

// NetStats is the transport-level traffic summary (filled from
// simnet.Stats or tcpnet accounting).
type NetStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// Report is the cluster-wide statistics view: the data behind the paper's
// Figure-5 output panel.
type Report struct {
	Sites []SiteStats
	Net   NetStats
	// WindowNS is the maximum site window (the observation period).
	WindowNS int64
}

// Totals aggregates all site stats into one.
func (r Report) Totals() SiteStats {
	out := SiteStats{Site: "TOTAL", AbortsByCause: make(map[string]uint64)}
	for _, s := range r.Sites {
		out.Began += s.Began
		out.Committed += s.Committed
		out.Aborted += s.Aborted
		out.Restarts += s.Restarts
		out.RoundTrips += s.RoundTrips
		out.Orphans += s.Orphans
		for k, v := range s.AbortsByCause {
			out.AbortsByCause[k] += v
		}
		out.Latency.Merge(s.Latency)
		out.WALFlushes += s.WALFlushes
		out.WALRecords += s.WALRecords
		out.WALSegments += s.WALSegments
		out.WALBytes += s.WALBytes
		out.Checkpoints += s.Checkpoints
		out.CheckpointDeltas += s.CheckpointDeltas
		out.SegmentsCompacted += s.SegmentsCompacted
		out.DirtyShards += s.DirtyShards
		out.Decisions += s.Decisions
		if s.CheckpointHorizon > out.CheckpointHorizon {
			out.CheckpointHorizon = s.CheckpointHorizon
		}
		if s.CheckpointPauseNS > out.CheckpointPauseNS {
			out.CheckpointPauseNS = s.CheckpointPauseNS
		}
		out.PipeDepth += s.PipeDepth
		out.PipeSubmitted += s.PipeSubmitted
		out.PipeBatches += s.PipeBatches
		if s.PipeMaxBatch > out.PipeMaxBatch {
			out.PipeMaxBatch = s.PipeMaxBatch
		}
		out.PipeStalls += s.PipeStalls
		out.PipeSpills += s.PipeSpills
		out.CCAdds += s.CCAdds
		out.CCSplitAdds += s.CCSplitAdds
		out.CCSplits += s.CCSplits
		out.CCDrains += s.CCDrains
		out.SplitItems += s.SplitItems
		out.CCWaits += s.CCWaits
		out.CCWaitDies += s.CCWaitDies
		out.CCDeadlocks += s.CCDeadlocks
		out.CCLockTimeouts += s.CCLockTimeouts
		out.CCRejections += s.CCRejections
		out.ReleasesAbandoned += s.ReleasesAbandoned
		out.NetSentEnvelopes += s.NetSentEnvelopes
		out.NetSendFlushes += s.NetSendFlushes
		out.NetRecvEnvelopes += s.NetRecvEnvelopes
		out.NetRecvFrames += s.NetRecvFrames
		out.NetSendSheds += s.NetSendSheds
		out.NetSentBytes += s.NetSentBytes
		for name, h := range s.Stages {
			if out.Stages == nil {
				out.Stages = make(map[string]Histogram)
			}
			merged := out.Stages[name]
			merged.Merge(h)
			out.Stages[name] = merged
		}
		out.TraceSampled += s.TraceSampled
		out.TraceFragments += s.TraceFragments
		out.TraceEvicted += s.TraceEvicted
		out.TraceSlow += s.TraceSlow
		out.RecoveryRecords += s.RecoveryRecords
		if s.RecoveryNS > out.RecoveryNS {
			out.RecoveryNS = s.RecoveryNS
		}
		out.Reconfigures += s.Reconfigures
		if s.Epoch > out.Epoch {
			out.Epoch = s.Epoch
		}
		if s.Shards > out.Shards {
			out.Shards = s.Shards
		}
		if s.WindowNS > out.WindowNS {
			out.WindowNS = s.WindowNS
		}
	}
	if r.WindowNS > out.WindowNS {
		out.WindowNS = r.WindowNS
	}
	return out
}

// MessagesPerSecond returns delivered messages per second over the window.
func (r Report) MessagesPerSecond() float64 {
	w := r.Totals().WindowNS
	if w <= 0 {
		return 0
	}
	return float64(r.Net.Delivered) / (float64(w) / 1e9)
}

// LoadImbalance returns the coefficient of variation of per-site admitted
// transaction counts — the paper's "load balance/imbalance indicator".
// Zero means perfectly balanced.
func (r Report) LoadImbalance() float64 {
	if len(r.Sites) == 0 {
		return 0
	}
	mean := 0.0
	for _, s := range r.Sites {
		mean += float64(s.Began)
	}
	mean /= float64(len(r.Sites))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, s := range r.Sites {
		d := float64(s.Began) - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(r.Sites))) / mean
}

// MessagesPerCommit returns delivered messages per committed transaction —
// the key series of the quorum-traffic experiment (E2).
func (r Report) MessagesPerCommit() float64 {
	t := r.Totals()
	if t.Committed == 0 {
		return 0
	}
	return float64(r.Net.Delivered) / float64(t.Committed)
}

// Render formats the report as the textual equivalent of the paper's
// transaction-processing output window (Figure 5).
func (r Report) Render() string {
	t := r.Totals()
	var b strings.Builder
	fmt.Fprintf(&b, "=== Rainbow Tx Processing Output ===\n")
	fmt.Fprintf(&b, "window: %v\n", time.Duration(t.WindowNS).Round(time.Millisecond))
	fmt.Fprintf(&b, "transactions: began=%d committed=%d aborted=%d restarts=%d\n",
		t.Began, t.Committed, t.Aborted, t.Restarts)
	fmt.Fprintf(&b, "commit rate: %.3f\n", t.CommitRate())
	causes := make([]string, 0, len(t.AbortsByCause))
	for k := range t.AbortsByCause {
		causes = append(causes, k)
	}
	sort.Strings(causes)
	for _, k := range causes {
		n := t.AbortsByCause[k]
		rate := 0.0
		if t.Began > 0 {
			rate = float64(n) / float64(t.Began)
		}
		fmt.Fprintf(&b, "aborts[%s]: %d (rate %.3f)\n", k, n, rate)
	}
	fmt.Fprintf(&b, "throughput: %.1f tx/s\n", t.Throughput())
	fmt.Fprintf(&b, "response time: mean=%v p95=%v max=%v\n",
		t.Latency.Mean().Round(time.Microsecond),
		t.Latency.Quantile(0.95).Round(time.Microsecond),
		time.Duration(t.Latency.MaxNS).Round(time.Microsecond))
	fmt.Fprintf(&b, "messages: sent=%d delivered=%d dropped=%d bytes=%d (%.1f msg/s, %.1f msg/commit)\n",
		r.Net.Sent, r.Net.Delivered, r.Net.Dropped, r.Net.Bytes,
		r.MessagesPerSecond(), r.MessagesPerCommit())
	fmt.Fprintf(&b, "round trips: %d\n", t.RoundTrips)
	fmt.Fprintf(&b, "orphan transactions: %d\n", t.Orphans)
	fmt.Fprintf(&b, "data plane: %d shards, wal %d records / %d flushes (%.1f recs/flush)\n",
		t.Shards, t.WALRecords, t.WALFlushes, t.WALBatchSize())
	if t.PipeBatches > 0 || t.PipeSpills > 0 {
		fmt.Fprintf(&b, "pipeline: %d ops / %d batches (%.1f ops/batch, max %d), depth=%d stalls=%d spills=%d\n",
			t.PipeSubmitted, t.PipeBatches, t.PipeBatchSize(), t.PipeMaxBatch,
			t.PipeDepth, t.PipeStalls, t.PipeSpills)
	}
	if t.CCAdds > 0 || t.CCSplits > 0 {
		fmt.Fprintf(&b, "hot-key split: %d adds (%d lock-free), %d splits / %d drains, %d items split now\n",
			t.CCAdds, t.CCSplitAdds, t.CCSplits, t.CCDrains, t.SplitItems)
	}
	if t.CCWaits > 0 || t.CCWaitDies > 0 || t.CCDeadlocks > 0 || t.CCLockTimeouts > 0 || t.CCRejections > 0 {
		fmt.Fprintf(&b, "cc give-ups: %d waits, %d wait-die aborts, %d deadlocks, %d lock timeouts, %d timestamp rejections\n",
			t.CCWaits, t.CCWaitDies, t.CCDeadlocks, t.CCLockTimeouts, t.CCRejections)
	}
	if t.ReleasesAbandoned > 0 {
		fmt.Fprintf(&b, "releases abandoned to janitor: %d\n", t.ReleasesAbandoned)
	}
	if t.NetSendFlushes > 0 {
		fmt.Fprintf(&b, "net coalescing: %d envelopes / %d flushes (%.1f env/flush, %.0f B/flush), %d frames in, sheds=%d\n",
			t.NetSentEnvelopes, t.NetSendFlushes, t.NetCoalescing(), t.NetBytesPerFlush(),
			t.NetRecvFrames, t.NetSendSheds)
	}
	if len(t.Stages) > 0 {
		fmt.Fprintf(&b, "stages (count p50/p99/max):\n")
		names := make([]string, 0, len(t.Stages))
		for name := range t.Stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := t.Stages[name]
			fmt.Fprintf(&b, "  %-10s %8d  %v / %v / %v\n", name, h.Count,
				h.Quantile(0.50).Round(time.Microsecond),
				h.Quantile(0.99).Round(time.Microsecond),
				time.Duration(h.MaxNS).Round(time.Microsecond))
		}
	}
	if t.TraceSampled > 0 {
		fmt.Fprintf(&b, "traces: sampled=%d fragments=%d evicted=%d slow=%d\n",
			t.TraceSampled, t.TraceFragments, t.TraceEvicted, t.TraceSlow)
	}
	fmt.Fprintf(&b, "durability: %d checkpoints (%d deltas), %d segments compacted, wal %d segments / %d bytes retained\n",
		t.Checkpoints, t.CheckpointDeltas, t.SegmentsCompacted, t.WALSegments, t.WALBytes)
	fmt.Fprintf(&b, "checkpoint: horizon=%d gate-pause=%v dirty-shards=%d decisions=%d\n",
		t.CheckpointHorizon, time.Duration(t.CheckpointPauseNS).Round(time.Microsecond),
		t.DirtyShards, t.Decisions)
	fmt.Fprintf(&b, "recovery: replayed %d records in %v (last restart)\n",
		t.RecoveryRecords, time.Duration(t.RecoveryNS).Round(time.Microsecond))
	fmt.Fprintf(&b, "catalog: epoch=%d, %d live reconfigurations\n", t.Epoch, t.Reconfigures)
	fmt.Fprintf(&b, "load imbalance (cv of admissions): %.3f\n", r.LoadImbalance())
	fmt.Fprintf(&b, "per-site:\n")
	for _, s := range r.Sites {
		fmt.Fprintf(&b, "  %-8s began=%-6d committed=%-6d aborted=%-5d orphans=%-3d mean=%v\n",
			s.Site, s.Began, s.Committed, s.Aborted, s.Orphans,
			s.Latency.Mean().Round(time.Microsecond))
		if len(s.StoreShards) > 0 {
			min, max := s.ShardOccupancy()
			fmt.Fprintf(&b, "           store shards: %d, occupancy %d-%d items, hit skew cv=%.3f\n",
				len(s.StoreShards), min, max, s.ShardSkew())
		}
	}
	return b.String()
}
