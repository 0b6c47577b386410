// Package site implements a Rainbow site: the full transaction-processing
// node of the system. Each site is simultaneously
//
//   - a home site: it admits transactions, dedicates a goroutine to each
//     (the paper's "one thread"), drives the RCP per operation, and runs
//     the ACP as coordinator (paper §2.1);
//   - a participant: it serves copy reads and pre-writes through its CCP,
//     votes in commit protocols, applies decisions, and answers decision /
//     termination-state queries;
//   - a recoverable store: a crash discards all volatile state (locks,
//     intents, commit-protocol states, in-flight coordination) while the
//     WAL survives; recovery rebuilds the store, re-protects in-doubt
//     transactions and resolves them through the commit protocol's
//     termination paths.
package site

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/acp"
	"repro/internal/cc"
	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/history"
	"repro/internal/lock"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/nameserver"
	"repro/internal/pipeline"
	"repro/internal/rcp"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// StatsResp carries a site's statistics snapshot (PMlet traffic).
type StatsResp struct {
	Stats monitor.SiteStats
}

// HistoryResp carries a site's local execution history (PMlet traffic).
type HistoryResp struct {
	Events []history.Event
}

// The monitoring bodies are cold-path (one stats poll per report interval)
// and deeply structured, so they ride the gob escape hatch rather than a
// hand-rolled encoding: the wire.Body implementation just wraps gob bytes,
// which keeps them off the reflection-free hot path guarantees without
// maintaining ~60 field encoders.

// Kind implements wire.Body.
func (r *StatsResp) Kind() wire.MsgKind { return wire.KindGetStats }

// AppendTo implements wire.Body.
func (r *StatsResp) AppendTo(buf []byte) []byte { return wire.AppendGob(buf, r) }

// DecodeFrom implements wire.Body.
func (r *StatsResp) DecodeFrom(p []byte) error { return wire.DecodeGob(p, r) }

// Kind implements wire.Body.
func (r *HistoryResp) Kind() wire.MsgKind { return wire.KindGetHistory }

// AppendTo implements wire.Body.
func (r *HistoryResp) AppendTo(buf []byte) []byte { return wire.AppendGob(buf, r) }

// DecodeFrom implements wire.Body.
func (r *HistoryResp) DecodeFrom(p []byte) error { return wire.DecodeGob(p, r) }

func init() {
	wire.RegisterBody(wire.KindGetStats, true, func() wire.Body { return &StatsResp{} })
	wire.RegisterBody(wire.KindGetHistory, true, func() wire.Body { return &HistoryResp{} })
}

// Config configures a site.
type Config struct {
	ID  model.SiteID
	Net wire.Network
	// Log is the site's WAL; nil selects a fresh in-memory log.
	Log wal.Log
	// Catalog provides the configuration directly; when nil the site
	// fetches it from the name server at start.
	Catalog *schema.Catalog
	// Register, when true, records the site's endpoint with the name
	// server at start.
	Register bool
	// Addr is the endpoint specification reported on registration.
	Addr string
	// Shards sets the data-plane shard count (storage shards and 2PL lock
	// stripes); <= 0 selects a GOMAXPROCS-derived default.
	Shards int
	// Checkpoint sets the checkpoint/compaction policy; zero values fall
	// back to the catalog's policy. Checkpointing engages only when the WAL
	// supports compaction (wal.Compactable: the segmented and in-memory
	// logs).
	Checkpoint schema.CheckpointPolicy
	// Pipeline sets the per-shard command-pipeline policy for the copy-
	// operation hot path; zero fields fall back to the catalog's policy.
	Pipeline schema.PipelinePolicy
	// Snapshots overrides the checkpoint snapshot store. Nil selects the
	// WAL's segment directory for segmented logs and an in-memory store
	// (surviving simulated crashes alongside the memory log) otherwise.
	Snapshots checkpoint.Store
	// CatalogPoll, when positive, makes the site probe the name server's
	// catalog epoch at this interval and reconfigure itself live when the
	// epoch moved — the pull half of online reconfiguration (the push half
	// is the name server's catalog broadcast). Zero disables polling.
	CatalogPoll time.Duration
	// Trace sets the per-site transaction-tracing policy; zero fields fall
	// back to the catalog's policy.
	Trace schema.TracePolicy
}

// Site is one Rainbow site.
type Site struct {
	id model.SiteID
	// net is the transport the site attached through; Stats probes it for
	// optional coalescing-sender counters (the tcpnet backend implements
	// them; the simulated network does not).
	net    wire.Network
	peer   *wire.Peer
	clock  *clock.Clock
	stats  *monitor.Collector
	hist   *history.Recorder
	shards int

	// tracer owns the site's per-stage latency histograms and the sampled
	// per-transaction trace fragments. Like the stats collector it is set
	// once at New and survives crashes and reconfigurations; policy changes
	// adopt in place.
	tracer   *trace.Tracer
	traceCfg schema.TracePolicy

	// snaps is the checkpoint snapshot store; like the WAL it survives
	// simulated crashes (set once at New).
	snaps   checkpoint.Store
	ckptCfg schema.CheckpointPolicy
	pipeCfg schema.PipelinePolicy
	poll    time.Duration

	// pipe is the per-shard command pipeline for the copy-operation hot path
	// (nil when disabled); swapped whole on every stack rebuild. Atomic
	// because serveAsync reads it on transport goroutines. pipeSpills counts
	// contended operations that left their sequencer for a blocking-path
	// goroutine.
	pipe       atomic.Pointer[pipeline.Pipeline[copyOp]]
	pipeSpills atomic.Uint64

	// gate is the site's snapshot/quiesce interlock, owned here for the
	// site's whole lifetime and shared with every checkpoint-manager
	// incarnation and the decision pipeline: record-forcing paths hold it
	// in read mode, fuzzy snapshots take it in write mode for the O(shards)
	// seal, and online reconfiguration write-locks it across the whole
	// stack rebuild so the WAL read observes a quiescent record stream.
	gate *sync.RWMutex

	// reconfigMu serializes live reconfigurations with each other and with
	// crash recovery (both rebuild the protocol stack).
	reconfigMu sync.Mutex

	mu          sync.Mutex
	log         wal.Log
	coordLog    wal.Log
	catalog     *schema.Catalog
	store       *storage.Store
	ccm         cc.Manager
	part        *acp.Participant
	ckpt        *checkpoint.Manager
	rcpProto    rcp.Protocol
	acpProto    acp.Protocol
	timeouts    schema.Timeouts
	seq         uint64
	activeCoord map[model.TxID]bool
	// recoveryRecords/recoveryNS describe the last (re)start: how many
	// retained WAL records were replayed and how long the rebuild took.
	recoveryRecords uint64
	recoveryNS      int64
	// ckptAccum accumulates checkpoint counters from previous incarnations
	// (each recovery builds a fresh manager); ckptBase window-scopes the
	// accumulated totals for ResetStats.
	ckptAccum checkpoint.Stats
	ckptBase  checkpoint.Stats
	// ccAccum accumulates CC-manager counters from previous stack
	// incarnations (every rebuild constructs a fresh manager); ccBase
	// window-scopes the totals for ResetStats, like ckptBase.
	ccAccum cc.Stats
	ccBase  cc.Stats
	// reconfigures counts completed live catalog reconfigurations.
	reconfigures uint64
	// incarnation identifies this protocol-stack incarnation: bumped on
	// EVERY rebuild (boot, crash recovery, live reconfiguration), reported
	// on copy-operation responses and echoed back in prepares, so a
	// prepare whose CC protection died with a previous incarnation is
	// rejected exactly (not just by the conservative intent heuristic or
	// the epoch fence). Wall-clock seeded, so it is monotone across real
	// process restarts without needing its own durable record.
	incarnation uint64
	// fence is the epoch fence: the catalog epoch of the last LIVE stack
	// rebuild. A live rebuild discards concurrency-control state exactly
	// like a crash, but unlike a crash the affected transactions keep
	// running — so this site refuses to prepare any transaction begun
	// under an older epoch (its locks here may be gone, and preparing it
	// could let two conflicting writers commit the same version). Cold
	// rebuilds (boot, crash recovery) leave the fence alone: there is no
	// epoch marker separating pre-crash transactions, and registration
	// skew must not fence freshly booted clusters.
	fence uint64
	// ckptCancel stops just the checkpoint trigger loop (reconfiguration
	// swaps the manager under a running site; crash/close cancel runCtx,
	// which this context descends from). ckptWG waits it out.
	ckptCancel context.CancelFunc
	ckptWG     sync.WaitGroup
	// released tombstones aborted transactions so a straggling copy
	// operation that races with its own ReleaseTx cannot leak CC state.
	released map[model.TxID]time.Time
	// walBaseFlushes/walBaseRecords snapshot the WAL's cumulative
	// group-commit counters at the last ResetStats, so SiteStats reports
	// them window-scoped like every other counter.
	walBaseFlushes uint64
	walBaseRecords uint64
	// releasesAbandoned counts release-retry loops that exhausted their
	// attempts and gave up, leaving cleanup to the remote presumed-abort
	// janitor. Nonzero values mean remote CC state stayed locked for a
	// janitor sweep longer than it should have.
	releasesAbandoned     atomic.Uint64
	releasesAbandonedBase uint64
	crashed               bool
	runCtx                context.Context
	runCancel             context.CancelFunc
	// lifeCtx spans the site OBJECT's lifetime (cancelled by Close only,
	// not by simulated crashes): background release retries ride it, so a
	// crash does not silently drop an aborted transaction's pending
	// releases — the network fabric already enforces fail-stop by
	// dropping a paused site's sends, and once the site resumes the
	// retries flush, unsticking remote CC state the abort left behind.
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
	resolveWG  sync.WaitGroup
}

// isReleased reports whether tx was already released/aborted here, and
// lazily prunes old tombstones.
func (s *Site) isReleased(tx model.TxID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.released[tx]
	return ok
}

// tombstone marks tx released.
func (s *Site) tombstone(tx model.TxID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.released) > 8192 {
		cutoff := time.Now().Add(-time.Minute)
		for t, at := range s.released {
			if at.Before(cutoff) {
				delete(s.released, t)
			}
		}
	}
	s.released[tx] = time.Now()
}

// New attaches a site to the network and brings it online. If the WAL
// already contains records (a restart), recovery runs before the site
// serves traffic.
func New(cfg Config) (*Site, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("site: empty id")
	}
	log := cfg.Log
	if log == nil {
		log = wal.NewMemory()
	}
	snaps := cfg.Snapshots
	if snaps == nil {
		switch l := log.(type) {
		case *wal.SegmentedLog:
			snaps = checkpoint.NewDirStore(l.Dir())
		case *wal.MemoryLog:
			snaps = checkpoint.NewMemStore()
		}
	}
	s := &Site{
		id:          cfg.ID,
		net:         cfg.Net,
		clock:       clock.New(cfg.ID),
		stats:       monitor.NewCollector(cfg.ID),
		hist:        history.NewRecorder(cfg.ID),
		shards:      cfg.Shards,
		snaps:       snaps,
		ckptCfg:     cfg.Checkpoint,
		pipeCfg:     cfg.Pipeline,
		poll:        cfg.CatalogPoll,
		gate:        new(sync.RWMutex),
		log:         log,
		tracer:      trace.New(cfg.ID, trace.Policy{}),
		traceCfg:    cfg.Trace,
		activeCoord: make(map[model.TxID]bool),
		released:    make(map[model.TxID]time.Time),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())

	// The WAL reports per-flush force-write timings into the always-on
	// wal_fsync stage histogram (one atomic load per flush when unobserved).
	if ol, ok := log.(wal.Observable); ok {
		tr := s.tracer
		ol.SetFlushObserver(func(d time.Duration, _ uint64) {
			tr.Observe(trace.StageWALFsync, d)
		})
	}
	// Transports that understand tracing (tcpnet) attach send-queue and
	// flush spans to in-flight envelopes via the registered tracer.
	if rt, ok := cfg.Net.(interface {
		RegisterTracer(model.SiteID, *trace.Tracer)
	}); ok {
		rt.RegisterTracer(cfg.ID, s.tracer)
	}

	peer, err := wire.NewPeer(cfg.Net, cfg.ID, s.serve)
	if err != nil {
		return nil, fmt.Errorf("site %s: %w", cfg.ID, err)
	}
	s.peer = peer

	catalog := cfg.Catalog
	if catalog == nil {
		catalog, err = s.fetchCatalog()
		if err != nil {
			peer.Close()
			return nil, fmt.Errorf("site %s: %w", cfg.ID, err)
		}
	}
	if err := s.configure(catalog); err != nil {
		peer.Close()
		return nil, fmt.Errorf("site %s: %w", cfg.ID, err)
	}
	// The stack exists: copy operations may now take the pipelined path
	// (serveAsync declines everything until rebuild installs a pipeline).
	peer.SetAsyncServe(s.serveAsync)

	if cfg.Register {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := nameserver.Register(ctx, peer, cfg.ID, cfg.Addr); err != nil {
			peer.Close()
			return nil, err
		}
	}
	s.startResolver()
	s.startCheckpointer()
	s.startCatalogPoller()
	return s, nil
}

// fetchCatalog retries the name server briefly to tolerate start ordering.
func (s *Site) fetchCatalog() (*schema.Catalog, error) {
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		cat, err := nameserver.Fetch(ctx, s.peer)
		cancel()
		if err == nil {
			return cat, nil
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return nil, fmt.Errorf("catalog fetch failed: %w", lastErr)
}

// configure (re)builds the site's protocol stack from a catalog. Recovery
// is bounded: the newest valid checkpoint snapshot (torn ones are skipped)
// seeds the store and decision table, and only the retained WAL records are
// scanned — redo applies records at/after the snapshot's horizon, while
// retained records below it surface in-doubt transactions for termination.
// Called at start and during recovery.
func (s *Site) configure(catalog *schema.Catalog) error {
	return s.rebuild(catalog, false)
}

// rebuild is the shared stack (re)build behind configure (cold: boot and
// crash recovery, where the site serves no traffic and volatile state is
// legitimately gone) and Reconfigure (live: the site keeps serving, the
// participant survives the swap, and the rebuild runs under the site gate's
// write side so the quiesced decision pipeline cannot race the WAL read).
func (s *Site) rebuild(catalog *schema.Catalog, live bool) error {
	timeouts := catalog.Timeouts.WithDefaults()
	recoveryStart := time.Now()

	// Per-site config wins; otherwise the catalog's experiment-wide shard
	// knob applies (this is how name-server-fetched sites receive it).
	shards := s.shards
	if shards <= 0 {
		shards = catalog.Shards
	}

	if live {
		// Quiesce the decision pipeline: every record-forcing path
		// (prepare, decision, end) holds the gate's read side, so the write
		// lock waits out in-flight forces and blocks new ones. Reads and
		// pre-writes keep flowing against the old stack; from here the log
		// is a stable stream whose effects at/after the forced snapshot's
		// horizon are exactly what the new store must redo.
		s.gate.Lock()
		defer s.gate.Unlock()
	}
	store := storage.NewSharded(shards)

	// The newest recoverable snapshot chain (full + consecutive valid
	// deltas; a torn delta falls back one link) composes into one image.
	var snap *checkpoint.Snapshot
	if s.snaps != nil {
		var err error
		if snap, err = checkpoint.Latest(s.snaps); err != nil {
			return err
		}
	}
	recs, err := s.log.ReadAll()
	if err != nil {
		return err
	}
	var snapItems map[model.ItemID]storage.Copy
	var horizon uint64
	if snap != nil {
		snapItems, horizon = snap.Items, snap.Horizon
	}
	inDoubt, err := store.RecoverRecords(catalog.LocalItems(s.id), snapItems, horizon, recs)
	if err != nil {
		return err
	}
	deadlock, err := lock.ParsePolicy(catalog.Protocols.Deadlock)
	if err != nil {
		return err
	}
	ccm, err := cc.New(catalog.Protocols.CCP, store, cc.Options{
		LockTimeout: timeouts.Lock,
		Deadlock:    deadlock,
		NoSplit:     catalog.Protocols.NoHotSplit,
		Shards:      shards,
		Tracer:      s.tracer,
	})
	if err != nil {
		return err
	}
	rcpProto, err := rcp.New(catalog.Protocols.RCP)
	if err != nil {
		return err
	}
	acpProto, err := acp.New(catalog.Protocols.ACP)
	if err != nil {
		return err
	}

	var part *acp.Participant
	if live {
		// The participant survives a live reconfiguration: its decision
		// table and in-doubt protocol states (including 3PC pre-committed)
		// are current in memory, and keeping the object means handler
		// goroutines that captured it before the swap keep routing through
		// the NEW applier — no decision can install into the dead store.
		part = s.part
		for _, r := range inDoubt {
			// The WAL surfaces a pinned Prepared record as in-doubt even
			// when the live table already knows the outcome; skip those.
			if _, decided := part.Decision(r.Tx); decided {
				continue
			}
			// Re-protect the write set in the new CC manager. A transaction
			// still held in memory keeps its live state; one found only in
			// the WAL (compacted decision, pre-reconfigure incarnation) is
			// restored as freshly prepared.
			if err := ccm.Reinstate(r.Tx, r.TS, r.Writes); err != nil {
				return err
			}
			if !part.Prepared(r.Tx) {
				part.Restore(wire.PrepareReq{
					Tx:           r.Tx,
					TS:           r.TS,
					Coordinator:  r.Coordinator,
					Participants: r.Participants,
					Voters:       r.Voters,
					Writes:       r.Writes,
				}, r.ThreePhase)
				restoreTermState(part, r)
			}
		}
		part.SetApplier(&applierWithHistory{cc: ccm, hist: s.hist})
	} else {
		part = acp.NewParticipant(s.id, s.log, &applierWithHistory{cc: ccm, hist: s.hist})
		part.UseGate(s.gate)
		var snapDecisions map[model.TxID]bool
		if snap != nil {
			snapDecisions = snap.DecisionMap()
			part.SeedDecisions(snapDecisions)
		}
		part.RestoreDecisions(recs)
		for _, r := range inDoubt {
			// A transaction can look in-doubt from the retained records
			// alone — its Prepared record pinned in a kept segment, its
			// decision record compacted away — while the snapshot's
			// decision table knows the outcome (and, for commits, the
			// snapshot already carries its effects). Don't re-lock those;
			// they are decided.
			if _, decided := snapDecisions[r.Tx]; decided {
				continue
			}
			if err := ccm.Reinstate(r.Tx, r.TS, r.Writes); err != nil {
				return err
			}
			part.Restore(wire.PrepareReq{
				Tx:           r.Tx,
				TS:           r.TS,
				Coordinator:  r.Coordinator,
				Participants: r.Participants,
				Voters:       r.Voters,
				Writes:       r.Writes,
			}, r.ThreePhase)
			restoreTermState(part, r)
		}
	}

	// The checkpoint manager engages when the WAL supports compaction; the
	// site-owned gate threads into it so fuzzy snapshots serialize with the
	// decision pipeline across manager incarnations.
	var mgr *checkpoint.Manager
	if cl, ok := s.log.(wal.Compactable); ok && s.snaps != nil {
		// Per-site knobs merge over the catalog's experiment-wide policy:
		// the automatic triggers fall back as a pair (a site with no local
		// trigger defers to the catalog's — even when its capture knobs are
		// set, e.g. by rainbow-site's -checkpoint-delta-max default), and
		// the capture knobs fall back field-wise. DeltaMax 0 defers,
		// negative explicitly forces full snapshots; NoCOW merges as a
		// union of disable requests.
		pol := s.ckptCfg
		if !pol.Enabled() {
			pol.Bytes, pol.Interval = catalog.Checkpoint.Bytes, catalog.Checkpoint.Interval
		}
		if pol.DeltaMax == 0 {
			pol.DeltaMax = catalog.Checkpoint.DeltaMax
		}
		pol.NoCOW = pol.NoCOW || catalog.Checkpoint.NoCOW
		pol.NoDirtyItems = pol.NoDirtyItems || catalog.Checkpoint.NoDirtyItems
		store.TrackDirtyItems(!pol.NoDirtyItems)
		mgr = checkpoint.NewManager(store, cl, s.snaps, part.DecisionTable,
			checkpoint.Policy{Bytes: pol.Bytes, Interval: pol.Interval, DeltaMax: pol.DeltaMax, NoCOW: pol.NoCOW})
		mgr.ShareGate(s.gate)
	}

	// A fresh incarnation for the fresh stack: any CC protection granted by
	// the previous incarnation is gone, so prepares carrying its number
	// must be rejected. Wall-clock seeding keeps it monotone across real
	// process restarts; max() guards against clock steps within one.
	incarnation := uint64(time.Now().UnixNano())
	s.mu.Lock()
	if incarnation <= s.incarnation {
		incarnation = s.incarnation + 1
	}
	if live && s.crashed {
		// A crash won the race against this reconfiguration: its recovery
		// owns the next rebuild; installing ours now would resurrect state
		// read before the crash.
		s.mu.Unlock()
		return fmt.Errorf("crashed during reconfiguration")
	}
	if s.ckpt != nil {
		old := s.ckpt.Stats()
		s.ckptAccum.Checkpoints += old.Checkpoints
		s.ckptAccum.Deltas += old.Deltas
		s.ckptAccum.SegmentsCompacted += old.SegmentsCompacted
	}
	if s.ccm != nil {
		addCCStats(&s.ccAccum, s.ccm.Stats())
	}
	s.catalog = catalog
	s.store = store
	s.ccm = ccm
	s.part = part
	s.ckpt = mgr
	s.incarnation = incarnation
	if live {
		s.fence = catalog.Epoch
	}
	s.coordLog = coordLog{Log: s.log, part: part}
	s.recoveryRecords = uint64(len(recs))
	s.recoveryNS = int64(time.Since(recoveryStart))
	s.rcpProto = rcpProto
	s.acpProto = acpProto
	s.timeouts = timeouts
	// Transaction ids must never repeat across site incarnations: peers
	// keep tombstones and decisions for the previous incarnation's ids.
	// Seeding the sequence from the wall clock guarantees monotonicity
	// across restarts (aborted transactions leave no WAL trace to scan).
	if now := uint64(time.Now().UnixNano()); s.seq < now {
		s.seq = now
	}
	s.mu.Unlock()

	// Install the new stack's command pipeline, merging the site-local
	// policy over the catalog's (field-wise, like the checkpoint policy).
	// Outside s.mu: closing the displaced pipeline waits out in-flight
	// batches, which take s.mu.
	pol := s.pipeCfg
	pol.Disable = pol.Disable || catalog.Pipeline.Disable
	if pol.Depth <= 0 {
		pol.Depth = catalog.Pipeline.Depth
	}
	if pol.MaxBatch <= 0 {
		pol.MaxBatch = catalog.Pipeline.MaxBatch
	}
	s.swapPipeline(pol, store.ShardCount())
	s.adoptTracePolicy(catalog)
	return nil
}

// adoptTracePolicy merges the site-local trace config over the catalog's
// (field-wise, like the checkpoint policy) and installs it on the tracer in
// place — no quiesce or rebuild is ever needed for a tracing change.
func (s *Site) adoptTracePolicy(catalog *schema.Catalog) {
	pol := s.traceCfg
	if pol.SampleRate == 0 {
		pol.SampleRate = catalog.Trace.SampleRate
	}
	if pol.Ring == 0 {
		pol.Ring = catalog.Trace.Ring
	}
	if pol.SlowMS == 0 {
		pol.SlowMS = catalog.Trace.SlowMS
	}
	s.tracer.SetPolicy(trace.Policy{
		SampleRate:    pol.SampleRate,
		Ring:          pol.Ring,
		SlowThreshold: time.Duration(pol.SlowMS) * time.Millisecond,
	})
}

// Tracer exposes the site's tracer (trace export, slow-trace hooks, tests).
func (s *Site) Tracer() *trace.Tracer { return s.tracer }

// Traces snapshots the site's ring of completed trace fragments,
// oldest-first.
func (s *Site) Traces() []trace.Trace { return s.tracer.Snapshot() }

// restoreTermState re-installs a recovered 3PC transaction's logged
// termination state (promised ballot, accepted pre-decision) so the member
// rejoins quorum termination where it left off instead of as freshly
// prepared.
func restoreTermState(part *acp.Participant, r storage.RecoveredTx) {
	if !r.ThreePhase {
		return
	}
	state := acp.StatePrepared
	if !r.EB.IsZero() {
		if r.PreDecide {
			state = acp.StatePreCommitted
		} else {
			state = acp.StatePreAborted
		}
	}
	part.RestoreTermState(r.Tx, state, r.EA, r.EB)
}

// Incarnation returns the site's current stack-incarnation number.
func (s *Site) Incarnation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incarnation
}

// ErrStaleEpoch rejects a Reconfigure whose catalog is not newer than the
// site's current one (a reordered push, a duplicate poll, an administrator
// replaying an old configuration).
var ErrStaleEpoch = fmt.Errorf("stale catalog epoch")

// Reconfigure applies a newer catalog version to a running site without a
// restart: quiesce the decision pipeline under the checkpoint gate, force a
// full snapshot at the current horizon, rebuild the protocol stack (shard
// count, item placement, protocols, checkpoint policy) and restore the
// store from that snapshot plus the records forced after it. Committed data
// survives, in-doubt transactions carry across (still terminated via
// 2PC/3PC), and reads/pre-writes keep being served throughout. Concurrency
// control state of not-yet-prepared transactions does not survive the swap
// — exactly the crash contract, minus the downtime and the log replay.
func (s *Site) Reconfigure(catalog *schema.Catalog) error {
	if err := catalog.Validate(); err != nil {
		return fmt.Errorf("site %s: reconfigure: %w", s.id, err)
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	s.mu.Lock()
	cur := s.catalog
	crashed := s.crashed
	ckpt := s.ckpt
	s.mu.Unlock()
	if crashed {
		return fmt.Errorf("site %s is down", s.id)
	}
	if catalog.Epoch <= cur.Epoch {
		return fmt.Errorf("site %s: %w: got %d, have %d", s.id, ErrStaleEpoch, catalog.Epoch, cur.Epoch)
	}
	diff := catalog.DiffFrom(cur)
	if !diff.Material() {
		// The epoch moved without touching any site-local structure (site
		// registrations do this): adopt the metadata, skip the rebuild.
		s.mu.Lock()
		s.catalog = catalog
		s.mu.Unlock()
		return nil
	}
	if !diff.RequiresRebuild() {
		// Timeouts and/or trace policy only: adopt in place — no quiesce,
		// no snapshot, no fence raise (nothing is wiped). New transactions
		// pick the timeouts up at Begin; the running resolver ticker keeps
		// its old OrphanResolve interval until the next rebuild.
		s.mu.Lock()
		s.catalog = catalog
		s.timeouts = catalog.Timeouts.WithDefaults()
		s.reconfigures++
		s.mu.Unlock()
		s.adoptTracePolicy(catalog)
		return nil
	}

	// Stop the trigger loop first so the old manager cannot race the
	// rebuild, then force a full snapshot at the current horizon: the
	// rebuild restores from one self-contained image and redoes only the
	// records forced after it.
	s.stopCheckpointer()
	if ckpt != nil {
		if err := ckpt.CheckpointFull(); err != nil {
			s.startCheckpointer()
			return fmt.Errorf("site %s: reconfigure snapshot: %w", s.id, err)
		}
	}
	if err := s.rebuild(catalog, true); err != nil {
		s.startCheckpointer() // the old stack stays installed
		return fmt.Errorf("site %s: reconfigure: %w", s.id, err)
	}
	s.mu.Lock()
	s.reconfigures++
	s.mu.Unlock()
	s.startCheckpointer()
	return nil
}

// coordLog is the WAL face handed to the atomic commit protocols when this
// site coordinates: decision records route through the participant's
// ForceDecision so the force-write and the local adoption (decision table +
// install) are one unit under the checkpoint gate, and end records route
// through ForceEnd so the fully-acknowledged transaction's decision-table
// entry retires under the same gate; everything else passes straight
// through.
type coordLog struct {
	wal.Log
	part *acp.Participant
}

// Append implements wal.Log.
func (c coordLog) Append(r wal.Record) error {
	switch r.Type {
	case wal.RecDecision:
		return c.part.ForceDecision(r)
	case wal.RecEnd:
		return c.part.ForceEnd(r)
	}
	return c.Log.Append(r)
}

// applierWithHistory records committed writes in the execution history
// before installing them through the CC manager.
type applierWithHistory struct {
	cc   cc.Manager
	hist *history.Recorder
}

func (a *applierWithHistory) Commit(tx model.TxID, writes []model.WriteRecord) error {
	for _, w := range writes {
		// Delta records are logged as OpAdd, not OpWrite: concurrent split
		// adds share one coordinator-assigned install version, and the MVSG
		// checker (rightly) flags duplicate versions among ordinary writes.
		// Adds commute, so they carry no precedence edges of their own; the
		// checker skips OpAdd events and the delta-sum invariant tests cover
		// their value exactness instead.
		kind := model.OpWrite
		if w.Delta {
			kind = model.OpAdd
		}
		a.hist.Record(tx, kind, w.Item, w.Value, w.Version)
	}
	return a.cc.Commit(tx, writes)
}

// addCCStats accumulates a CC manager's counters into acc (managers are
// discarded wholesale on every stack rebuild, so totals must be carried
// across incarnations by hand, like checkpoint stats).
func addCCStats(acc *cc.Stats, s cc.Stats) {
	acc.Reads += s.Reads
	acc.PreWrites += s.PreWrites
	acc.Rejections += s.Rejections
	acc.Deadlocks += s.Deadlocks
	acc.WaitDies += s.WaitDies
	acc.Timeouts += s.Timeouts
	acc.Waits += s.Waits
	acc.Adds += s.Adds
	acc.SplitAdds += s.SplitAdds
	acc.Splits += s.Splits
	acc.Drains += s.Drains
}

func (a *applierWithHistory) Abort(tx model.TxID) { a.cc.Abort(tx) }

// ID returns the site's id.
func (s *Site) ID() model.SiteID { return s.id }

// Stats snapshots the site's statistics including the current orphan count,
// the data-plane shard / WAL group-commit counters, the checkpoint and
// log-volume gauges, and the last recovery's replay cost.
func (s *Site) Stats() monitor.SiteStats {
	s.mu.Lock()
	part := s.part
	store := s.store
	log := s.log
	ckpt := s.ckpt
	ccm := s.ccm
	baseFlushes, baseRecords := s.walBaseFlushes, s.walBaseRecords
	ckptAccum, ckptBase := s.ckptAccum, s.ckptBase
	ccAccum, ccBase := s.ccAccum, s.ccBase
	releasesAbandonedBase := s.releasesAbandonedBase
	recoveryRecords, recoveryNS := s.recoveryRecords, s.recoveryNS
	var epoch uint64
	if s.catalog != nil {
		epoch = s.catalog.Epoch
	}
	reconfigures := s.reconfigures
	s.mu.Unlock()
	orphans := 0
	if part != nil {
		orphans = part.InDoubtCount()
	}
	stats := s.stats.Snapshot(orphans)
	if store != nil {
		stats.Shards = store.ShardCount()
		for _, sh := range store.ShardStats() {
			stats.StoreShards = append(stats.StoreShards, monitor.ShardStat{
				Items: sh.Items, Hits: sh.Hits, Installs: sh.Installs,
			})
		}
	}
	if bs, ok := log.(wal.BatchStats); ok {
		flushes, records := bs.BatchStats()
		stats.WALFlushes = flushes - baseFlushes
		stats.WALRecords = records - baseRecords
	}
	if cl, ok := log.(wal.Compactable); ok {
		stats.WALSegments = cl.Segments()
		stats.WALBytes = cl.SizeBytes()
	}
	if ckpt != nil {
		cs := ckpt.Stats()
		ckptAccum.Checkpoints += cs.Checkpoints
		ckptAccum.Deltas += cs.Deltas
		ckptAccum.SegmentsCompacted += cs.SegmentsCompacted
		stats.CheckpointHorizon = cs.LastHorizon
		stats.CheckpointPauseNS = int64(cs.LastPause)
		stats.DirtyShards = ckpt.PendingDirty()
	}
	if part != nil {
		stats.Decisions = part.DecisionCount()
	}
	stats.Checkpoints = ckptAccum.Checkpoints - min(ckptBase.Checkpoints, ckptAccum.Checkpoints)
	stats.CheckpointDeltas = ckptAccum.Deltas - min(ckptBase.Deltas, ckptAccum.Deltas)
	stats.SegmentsCompacted = ckptAccum.SegmentsCompacted - min(ckptBase.SegmentsCompacted, ckptAccum.SegmentsCompacted)
	if ccm != nil {
		addCCStats(&ccAccum, ccm.Stats())
		if sp, ok := ccm.(interface{ SplitItems() int }); ok {
			stats.SplitItems = sp.SplitItems()
		}
	}
	stats.CCAdds = ccAccum.Adds - min(ccBase.Adds, ccAccum.Adds)
	stats.CCSplitAdds = ccAccum.SplitAdds - min(ccBase.SplitAdds, ccAccum.SplitAdds)
	stats.CCSplits = ccAccum.Splits - min(ccBase.Splits, ccAccum.Splits)
	stats.CCDrains = ccAccum.Drains - min(ccBase.Drains, ccAccum.Drains)
	stats.CCWaits = ccAccum.Waits - min(ccBase.Waits, ccAccum.Waits)
	stats.CCWaitDies = ccAccum.WaitDies - min(ccBase.WaitDies, ccAccum.WaitDies)
	stats.CCDeadlocks = ccAccum.Deadlocks - min(ccBase.Deadlocks, ccAccum.Deadlocks)
	stats.CCLockTimeouts = ccAccum.Timeouts - min(ccBase.Timeouts, ccAccum.Timeouts)
	stats.CCRejections = ccAccum.Rejections - min(ccBase.Rejections, ccAccum.Rejections)
	ra := s.releasesAbandoned.Load()
	stats.ReleasesAbandoned = ra - min(releasesAbandonedBase, ra)
	stats.RecoveryRecords = recoveryRecords
	stats.RecoveryNS = recoveryNS
	stats.Epoch = epoch
	stats.Reconfigures = reconfigures
	ps, spills := s.PipelineStats()
	stats.PipeDepth = ps.Depth
	stats.PipeSubmitted = ps.Submitted
	stats.PipeBatches = ps.Batches
	stats.PipeMaxBatch = ps.MaxBatch
	stats.PipeStalls = ps.Stalls
	stats.PipeSpills = spills
	if ns, ok := s.net.(interface{ NetStats() tcpnet.Stats }); ok {
		n := ns.NetStats()
		stats.NetSentEnvelopes = n.SentEnvelopes
		stats.NetSendFlushes = n.SentFlushes
		stats.NetRecvEnvelopes = n.RecvEnvelopes
		stats.NetRecvFrames = n.RecvFrames
		stats.NetSendSheds = n.SendSheds
		stats.NetSentBytes = n.SentBytes
	}
	stats.Stages = s.tracer.StageHistograms()
	ts := s.tracer.Stats()
	stats.TraceSampled = ts.Sampled
	stats.TraceFragments = ts.Fragments
	stats.TraceEvicted = ts.Evicted
	stats.TraceSlow = ts.Slow
	return stats
}

// ResetStats zeroes the statistics window, including the WAL, checkpoint
// and per-shard counters' baselines.
func (s *Site) ResetStats() {
	s.stats.Reset()
	s.tracer.ResetStages()
	s.mu.Lock()
	if bs, ok := s.log.(wal.BatchStats); ok {
		s.walBaseFlushes, s.walBaseRecords = bs.BatchStats()
	}
	s.ckptBase = s.ckptAccum
	if s.ckpt != nil {
		cs := s.ckpt.Stats()
		s.ckptBase.Checkpoints += cs.Checkpoints
		s.ckptBase.Deltas += cs.Deltas
		s.ckptBase.SegmentsCompacted += cs.SegmentsCompacted
	}
	s.ccBase = s.ccAccum
	if s.ccm != nil {
		addCCStats(&s.ccBase, s.ccm.Stats())
	}
	s.releasesAbandonedBase = s.releasesAbandoned.Load()
	store := s.store
	s.mu.Unlock()
	if store != nil {
		store.ResetShardStats()
	}
}

// Checkpoint takes a fuzzy snapshot of the store now, pins the replay
// horizon, and compacts the WAL — the manual trigger next to the automatic
// byte/interval policies. It serializes with Reconfigure (reconfigMu): the
// old manager snapshotting the frozen pre-reshard store at a post-rebuild
// durable LSN would claim coverage of installs that only the new store
// holds, and a recovery restoring that snapshot would lose them. (The
// background trigger loop needs no such guard — Reconfigure stops it and
// waits it out before rebuilding.)
func (s *Site) Checkpoint() error {
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	s.mu.Lock()
	ckpt := s.ckpt
	crashed := s.crashed
	s.mu.Unlock()
	if crashed {
		return fmt.Errorf("site %s is down", s.id)
	}
	if ckpt == nil {
		return fmt.Errorf("site %s: WAL backend does not support checkpoints", s.id)
	}
	return ckpt.Checkpoint()
}

// CheckpointStats reports the checkpoint manager's counters (zero when
// checkpointing is unsupported).
func (s *Site) CheckpointStats() checkpoint.Stats {
	s.mu.Lock()
	ckpt := s.ckpt
	s.mu.Unlock()
	if ckpt == nil {
		return checkpoint.Stats{}
	}
	return ckpt.Stats()
}

// History snapshots the site's local execution history.
func (s *Site) History() []history.Event { return s.hist.Events() }

// HistoryRecorder exposes the recorder for cluster-level merging.
func (s *Site) HistoryRecorder() *history.Recorder { return s.hist }

// Store returns the current copy store (for monitors and tests).
func (s *Site) Store() *storage.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// Catalog returns the site's current catalog.
func (s *Site) Catalog() *schema.Catalog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catalog
}

// Epoch returns the epoch of the site's current catalog.
func (s *Site) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.catalog == nil {
		return 0
	}
	return s.catalog.Epoch
}

// Reconfigures counts completed live catalog reconfigurations.
func (s *Site) Reconfigures() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reconfigures
}

// DecisionTable returns a copy of the participant's current decision table
// (the soak harness's cross-site agreement invariant reads it).
func (s *Site) DecisionTable() map[model.TxID]bool {
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	if part == nil {
		return nil
	}
	return part.DecisionTable()
}

// InDoubtCount reports the site's current number of blocked in-doubt
// transactions (the paper's orphans).
func (s *Site) InDoubtCount() int {
	s.mu.Lock()
	part := s.part
	s.mu.Unlock()
	if part == nil {
		return 0
	}
	return part.InDoubtCount()
}

// Crash simulates a site failure: all volatile state is lost and the site
// stops processing. The WAL survives. Use together with the network-level
// pause so the crashed site is also unreachable.
func (s *Site) Crash() {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return
	}
	s.crashed = true
	s.runCancel()
	s.log.Close() // stale handler goroutines can no longer force records
	s.mu.Unlock()
	s.resolveWG.Wait()
	s.ckptWG.Wait()
}

// Crashed reports whether the site is currently down.
func (s *Site) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// Recover brings a crashed site back: the WAL is replayed, committed writes
// reinstalled, in-doubt transactions re-protected, and the resolver loop
// restarted to drive them to an outcome.
func (s *Site) Recover() error {
	// Serialize with live reconfiguration: both rebuild the stack, and a
	// reconfigure that lost the race against the crash must not install its
	// pre-crash reads over the recovery's rebuild.
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	s.mu.Lock()
	if !s.crashed {
		s.mu.Unlock()
		return fmt.Errorf("site %s: not crashed", s.id)
	}
	if ml, ok := s.log.(*wal.MemoryLog); ok {
		ml.Reopen()
	}
	catalog := s.catalog
	s.mu.Unlock()

	if err := s.configure(catalog); err != nil {
		return err
	}
	s.mu.Lock()
	s.crashed = false
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.mu.Unlock()
	s.startResolver()
	s.startCheckpointer()
	s.startCatalogPoller()
	return nil
}

// Close shuts the site down permanently.
func (s *Site) Close() error {
	s.mu.Lock()
	crashed := s.crashed
	s.crashed = true
	s.runCancel()
	s.lifeCancel()
	s.mu.Unlock()
	// Drain and stop the command pipeline (queued operations get their
	// crashed-refusal replies); blocked Submits error out on lifeCtx.
	if p := s.pipe.Swap(nil); p != nil {
		p.Close()
	}
	s.resolveWG.Wait()
	s.ckptWG.Wait()
	if !crashed {
		s.log.Close()
	}
	return s.peer.Close()
}

// startCheckpointer runs the checkpoint manager's trigger loop for this
// incarnation (a no-op when checkpointing is unsupported or no automatic
// trigger is configured). The loop's context descends from runCtx (crash
// and close still stop it) but has its own cancel so a live reconfiguration
// can stop just this loop while the site keeps serving.
func (s *Site) startCheckpointer() {
	s.mu.Lock()
	ckpt := s.ckpt
	// A crashed site starts nothing, and the WaitGroup Add happens inside
	// the same critical section that checks crashed: Crash() flips the
	// flag under s.mu BEFORE waiting on ckptWG, so the Add either
	// happened-before that Wait (counted) or this start observes crashed
	// and skips — never an Add racing a Wait-from-zero.
	if ckpt == nil || s.crashed {
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.runCtx)
	s.ckptCancel = cancel
	s.ckptWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.ckptWG.Done()
		ckpt.Run(ctx)
	}()
}

// stopCheckpointer halts the background checkpoint loop and waits it out —
// reconfiguration is about to replace the manager it drives.
func (s *Site) stopCheckpointer() {
	s.mu.Lock()
	cancel := s.ckptCancel
	s.ckptCancel = nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.ckptWG.Wait()
}

// startCatalogPoller runs the catalog staleness probe: every poll interval,
// fetch the name server's epoch and reconfigure live when it moved past the
// site's. The poll is the delivery guarantee behind the name server's
// best-effort push — a site that was partitioned, crashed or simply missed
// the cast converges as soon as it can reach the name server again.
func (s *Site) startCatalogPoller() {
	s.mu.Lock()
	ctx := s.runCtx
	interval := s.poll
	s.mu.Unlock()
	if interval <= 0 {
		return
	}
	s.resolveWG.Add(1)
	go func() {
		defer s.resolveWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				s.pollCatalog(ctx)
			}
		}
	}()
}

// pollCatalog performs one staleness probe tick.
func (s *Site) pollCatalog(ctx context.Context) {
	s.mu.Lock()
	cur := s.catalog.Epoch
	s.mu.Unlock()
	ectx, cancel := context.WithTimeout(ctx, time.Second)
	epoch, err := nameserver.FetchEpoch(ectx, s.peer)
	cancel()
	if err != nil || epoch <= cur {
		return
	}
	fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	cat, err := nameserver.Fetch(fctx, s.peer)
	cancel()
	if err != nil {
		return
	}
	// A racing push may already have applied this epoch; the stale-epoch
	// reject below is then the expected outcome, and real failures surface
	// again next tick.
	s.Reconfigure(cat) //nolint:errcheck
}

// startResolver runs the orphan-resolution loop: periodically try to decide
// in-doubt transactions via decision requests / cooperative termination.
func (s *Site) startResolver() {
	s.mu.Lock()
	ctx := s.runCtx
	interval := s.timeouts.OrphanResolve
	part := s.part
	s.mu.Unlock()

	s.resolveWG.Add(1)
	go func() {
		defer s.resolveWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				for _, tx := range part.InDoubt(interval) {
					rctx, cancel := context.WithTimeout(ctx, interval)
					part.Resolve(rctx, s, tx)
					cancel()
				}
				s.janitorSweep(ctx)
			}
		}
	}()
}

// janitorAge is the stranded-holder threshold the CC janitor applies,
// derived from the lock timeout: CC state older than this that never
// prepared cannot belong to a healthy transaction (operations and lock
// waits are all bounded well below it).
func janitorAge(t schema.Timeouts) time.Duration {
	return 10 * t.Lock
}

// janitorSweep is the CC-level janitor: unprepared CC state (locks,
// buffered intents) stranded at this site — its home aborted and the
// release was lost, or the home process died outright, taking its
// in-process release retries with it — is found by age and freed by
// presumed-abort-querying the home. Site-local cleanup: it survives a real
// home-process death, unlike the home's bounded retry loop.
//
// Safety: prepared (in-doubt) transactions are the ACP termination path's
// property and are never touched. The final not-prepared re-check and the
// release run under the site gate's WRITE side, which votePrepare's
// check+force excludes — a prepare racing the janitor either lands before
// (the re-check sees it and skips) or after (the tombstone makes it vote
// no); it can never interleave. A presumed-abort answer for a transaction
// that is merely slow costs that transaction an abort at prepare time —
// never an inconsistency.
func (s *Site) janitorSweep(ctx context.Context) {
	s.mu.Lock()
	ccm := s.ccm
	part := s.part
	timeouts := s.timeouts
	s.mu.Unlock()
	if ccm == nil || part == nil {
		return
	}
	// One bounded query per UNREACHABLE home per sweep: a dead home with
	// many stranded transactions must not serialize N timeouts.Op waits
	// through the resolver goroutine (in-doubt resolution shares it).
	deadHomes := make(map[model.SiteID]bool)
	for _, tx := range ccm.Holders(janitorAge(timeouts)) {
		if part.Prepared(tx) {
			continue // in-doubt: ACP termination owns it
		}
		s.mu.Lock()
		active := s.activeCoord[tx]
		s.mu.Unlock()
		if active {
			continue // our own commit round is running
		}
		var known bool
		if _, decided := part.Decision(tx); decided {
			// Outcome known locally: whatever unprepared state remains is
			// stray (a decided cohort member would have been prepared).
			known = true
		} else if tx.Site == s.id {
			_, known = s.localDecision(tx, false)
		} else {
			if deadHomes[tx.Site] {
				continue // already timed out this sweep: retry next tick
			}
			qctx, cancel := context.WithTimeout(ctx, timeouts.Op)
			var err error
			known, _, err = s.QueryDecision(qctx, tx.Site, tx, false)
			cancel()
			if err != nil {
				deadHomes[tx.Site] = true
				continue // home unreachable: retry next tick
			}
		}
		if !known {
			continue // the home is alive and still deciding — leave it
		}
		// The outcome is known (an abort, a presumed abort, or a commit
		// that never enlisted this site — a participant would hold a
		// prepared record, checked above). Either way the unprepared state
		// is garbage. Tombstone, then re-check under the gate's write side
		// so no prepare can interleave.
		s.gate.Lock()
		if !part.Prepared(tx) {
			s.tombstone(tx)
			ccm.Abort(tx)
		}
		s.gate.Unlock()
	}
}
