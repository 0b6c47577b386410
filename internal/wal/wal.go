// Package wal implements the per-site write-ahead log that makes Rainbow's
// atomic commit protocols recoverable. Participants force a Prepared record
// (carrying the transaction's write records) before voting yes, and a
// Decision record when they learn the outcome; coordinators force their
// decision before broadcasting it. Crash recovery replays the log to
// rebuild committed state and to find in-doubt transactions.
//
// The file backend group-commits: a dedicated committer goroutine coalesces
// concurrently arriving appends into a single buffer-write/flush/fsync
// cycle, so under load N transactions pay one disk force instead of N. The
// durability contract is unchanged — Append and AppendBatch return only
// after the record's batch has been flushed (and fsynced when the log is in
// sync mode), so a participant's yes-vote still implies a forced Prepared
// record.
//
// Two backends are provided: an in-memory log (used under the network
// simulator, where a "crash" discards a site's volatile state but keeps its
// log, exactly like a disk surviving a process crash) and SegmentedLog, a
// directory of CRC-framed binary segments for real multi-process
// deployments (segment.go).
package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// RecType discriminates log records.
type RecType uint8

// Record types.
const (
	// RecPrepared is forced by a participant before it votes yes (and by a
	// coordinator for its own local cohort membership). It carries the
	// write records needed to redo the transaction at commit.
	RecPrepared RecType = iota + 1
	// RecDecision is forced when the commit/abort outcome is known. On a
	// coordinator it is the commit point.
	RecDecision
	// RecEnd marks that all cohort acknowledgements arrived and the
	// transaction needs no further recovery work.
	RecEnd
	// RecCheckpoint is written by the checkpoint manager after a fuzzy
	// snapshot has been made durable. It pins the replay horizon: recovery
	// loads the snapshot and redoes only records at or after Horizon.
	RecCheckpoint
	// RecElect is forced by a 3PC participant before it answers a
	// termination-election query: Ballot is the new election epoch the
	// member promised (its "ea"). The promise must survive a crash —
	// otherwise a recovered member could accept a pre-decision from an
	// attempt older than one it already helped elect, and two quorums could
	// decide differently.
	RecElect
	// RecPreDecide is forced by a 3PC participant before it acknowledges a
	// pre-commit (Ballot{0, coordinator}, the live coordinator's round) or
	// a termination pre-decision (an elected initiator's ballot). Commit
	// carries the pre-decision's direction; Ballot is the accepted attempt
	// (the member's "eb"). Pre-committed state is durable, not volatile:
	// a recovered member rejoins termination with its logged state instead
	// of a presumed-abort guess.
	RecPreDecide
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecPrepared:
		return "prepared"
	case RecDecision:
		return "decision"
	case RecEnd:
		return "end"
	case RecCheckpoint:
		return "checkpoint"
	case RecElect:
		return "elect"
	case RecPreDecide:
		return "predecide"
	default:
		return fmt.Sprintf("rectype(%d)", uint8(t))
	}
}

// Record is one WAL entry. Fields are populated according to Type.
type Record struct {
	Type RecType
	Tx   model.TxID
	TS   model.Timestamp
	// Coordinator and Participants describe the commit cohort (RecPrepared).
	Coordinator  model.SiteID
	Participants []model.SiteID
	// Voters lists the termination electorate (RecPrepared, 3PC): the
	// cohort members that hold writes (or all participants when the
	// read-only optimization is off). Quorum-based termination counts its
	// majorities over this set — read-only participants release at vote
	// time and must not dilute the quorum arithmetic.
	Voters []model.SiteID
	// ThreePhase records which ACP state machine governs the transaction.
	ThreePhase bool
	// Writes are the records to install on commit (RecPrepared).
	Writes []model.WriteRecord
	// Commit is the outcome (RecDecision) or the pre-decision direction
	// (RecPreDecide).
	Commit bool
	// Ballot is the termination-election epoch (RecElect: the promised
	// "ea"; RecPreDecide: the accepted attempt "eb").
	Ballot model.Ballot
	// Horizon is the replay horizon pinned by a checkpoint record
	// (RecCheckpoint): the first LSN recovery must redo on top of the
	// checkpoint's snapshot.
	Horizon uint64
	// LSN is the record's log sequence number. It is a position, not
	// payload: LSN-aware logs assign it at append time and report it on
	// reads; it is never serialized.
	LSN uint64
}

// Log is an append-only record log.
type Log interface {
	// Append durably appends a record.
	Append(Record) error
	// AppendBatch durably appends records as one unit: all of them are on
	// stable storage when it returns. Backends may coalesce concurrent
	// batches into a single force-write.
	AppendBatch([]Record) error
	// ReadAll returns every record in append order.
	ReadAll() ([]Record, error)
	// Close releases resources. Appending after Close is an error.
	Close() error
}

// BatchStats reports group-commit counters: flushes is the number of
// force-write cycles, records the number of records they carried. Both
// backends implement it; the progress monitor reads it through the Log
// interface.
type BatchStats interface {
	BatchStats() (flushes, records uint64)
}

// FlushObserver receives the wall-clock duration of each force-write cycle
// (write + flush + fsync) and the number of records the cycle carried. The
// site's tracer feeds its wal_fsync stage histogram through it. Observers
// run inline on the committer goroutine and must be fast and safe for
// concurrent use; with no observer installed a flush pays one atomic load.
type FlushObserver func(d time.Duration, records uint64)

// Observable is implemented by logs that report per-flush timings (all
// backends in this package). The wal package stays free of monitoring
// imports; callers probe for this interface and install a closure.
type Observable interface {
	SetFlushObserver(FlushObserver)
}

// Compactable is implemented by logs that assign log sequence numbers and
// support checkpoint-driven compaction (SegmentedLog and MemoryLog). The checkpoint manager drives it:
// a fuzzy snapshot at horizon H makes every record below H redundant for
// redo, except Prepared records of still-undecided (in-doubt) transactions,
// which must survive for ACP termination.
type Compactable interface {
	Log
	// DurableLSN returns the LSN of the last durably appended record
	// (0 when the log is empty). LSNs start at 1 and increase by one per
	// record in append order.
	DurableLSN() uint64
	// AppendedBytes returns the cumulative bytes appended over the log's
	// lifetime (monotone; compaction does not decrease it). The checkpoint
	// manager's bytes-since-last-checkpoint trigger reads it.
	AppendedBytes() uint64
	// SizeBytes returns the currently retained log volume.
	SizeBytes() uint64
	// Segments returns the retained segment count (1 record = 1 unit for
	// the in-memory log).
	Segments() int
	// Compact removes segments wholly below horizon that contain no
	// Prepared record of a transaction still undecided as of horizon,
	// returning how many were removed. Compact(0) is a no-op.
	Compact(horizon uint64) (removed int, err error)
}

// ---- In-memory backend ----

// MemoryLog is a Log kept in process memory. It survives the simulated site
// crashes used by the failure injector (the site's volatile state is
// discarded; the log object is handed to the recovered site). It is
// Compactable — each record is its own "segment" — so simulated experiments
// exercise the same checkpoint/compaction machinery as file-backed sites.
type MemoryLog struct {
	mu      sync.Mutex
	recs    []Record
	closed  bool
	flushes uint64
	records uint64

	nextLSN  uint64
	appended uint64
	size     uint64
	// pins feeds Compact's in-doubt pinning rule (shared with SegmentedLog).
	pins pinTracker

	flushObs atomic.Pointer[FlushObserver]
}

// NewMemory returns an empty in-memory log.
func NewMemory() *MemoryLog {
	return &MemoryLog{nextLSN: 1, pins: newPinTracker()}
}

// estimateSize approximates a record's serialized footprint; the in-memory
// log never marshals, but the checkpoint manager's bytes trigger and the
// monitor's log-volume gauge still need a monotone byte signal.
func estimateSize(r *Record) uint64 {
	n := 48 + len(r.Tx.Site) + len(r.Coordinator) + len(r.TS.Site) + len(r.Ballot.Site)
	for _, p := range r.Participants {
		n += 8 + len(p)
	}
	for _, p := range r.Voters {
		n += 8 + len(p)
	}
	for _, w := range r.Writes {
		n += 20 + len(w.Item)
	}
	return uint64(n)
}

// Append implements Log.
func (l *MemoryLog) Append(r Record) error {
	return l.AppendBatch([]Record{r})
}

// SetFlushObserver implements Observable.
func (l *MemoryLog) SetFlushObserver(f FlushObserver) {
	if f == nil {
		l.flushObs.Store(nil)
		return
	}
	l.flushObs.Store(&f)
}

// AppendBatch implements Log.
func (l *MemoryLog) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if obs := l.flushObs.Load(); obs != nil {
		start := time.Now()
		defer func() { (*obs)(time.Since(start), uint64(len(recs))) }()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: append to closed log")
	}
	for _, r := range recs {
		// Deep-copy slices so callers cannot mutate logged state.
		r.Writes = append([]model.WriteRecord(nil), r.Writes...)
		r.Participants = append([]model.SiteID(nil), r.Participants...)
		r.Voters = append([]model.SiteID(nil), r.Voters...)
		r.LSN = l.nextLSN
		l.nextLSN++
		l.pins.track(r.Type, r.Tx, r.LSN)
		sz := estimateSize(&r)
		l.appended += sz
		l.size += sz
		l.recs = append(l.recs, r)
	}
	l.flushes++
	l.records += uint64(len(recs))
	return nil
}

// DurableLSN implements Compactable.
func (l *MemoryLog) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// AppendedBytes implements Compactable.
func (l *MemoryLog) AppendedBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// SizeBytes implements Compactable.
func (l *MemoryLog) SizeBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Segments implements Compactable: each retained record counts as one unit.
func (l *MemoryLog) Segments() int { return l.Len() }

// Compact implements Compactable: records below horizon are dropped unless
// they are Prepared records of transactions undecided as of horizon (the
// in-doubt pin — those must survive for commit-protocol termination).
func (l *MemoryLog) Compact(horizon uint64) (int, error) {
	if horizon == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.recs[:0]
	removed := 0
	for _, r := range l.recs {
		pinnable := r.Type == RecPrepared || r.Type == RecElect || r.Type == RecPreDecide
		if r.LSN >= horizon || (pinnable && l.pins.pinned(r.Tx, horizon)) {
			kept = append(kept, r)
			continue
		}
		l.size -= estimateSize(&r)
		removed++
	}
	// Zero the tail so dropped records are collectable.
	for i := len(kept); i < len(l.recs); i++ {
		l.recs[i] = Record{}
	}
	l.recs = kept
	l.pins.prune(horizon)
	return removed, nil
}

// ReadAll implements Log.
func (l *MemoryLog) ReadAll() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.recs))
	copy(out, l.recs)
	return out, nil
}

// Close implements Log. A closed memory log can still be read (recovery
// reads the log of a crashed site).
func (l *MemoryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Reopen makes a closed memory log appendable again, modelling the disk
// being remounted by the recovered site.
func (l *MemoryLog) Reopen() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = false
}

// Len returns the number of records (for tests and monitors).
func (l *MemoryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// BatchStats implements the BatchStats interface.
func (l *MemoryLog) BatchStats() (flushes, records uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushes, l.records
}
