// Package storage implements a Rainbow site's local copy store: the
// physical copies of database items placed on the site by the replication
// schema, each carrying a value and a version number (quorum consensus
// reads the max-version value of a quorum and installs max+1 on writes).
//
// The store is sharded: copies are spread over a fixed power-of-two array
// of shards by an item-ID hash, each shard guarded by its own RWMutex, so
// concurrent transactions touching different items never contend on a
// global lock. Whole-store operations (Init, Snapshot, Items, multi-shard
// Apply) acquire shard locks in index order, which keeps them atomic with
// respect to each other and internally deadlock-free.
//
// The store is deliberately below concurrency control: all isolation is the
// CCP's job (internal/cc); the store only provides atomic snapshots and
// version-guarded installation, plus WAL-based crash recovery.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Copy is one physical copy of an item.
type Copy struct {
	Value   int64
	Version model.Version
}

// MaxShards bounds the shard count; beyond this the per-shard maps are so
// small that more shards only waste memory.
const MaxShards = 256

// DefaultShards returns the default shard count: the smallest power of two
// covering the available parallelism, capped at MaxShards.
func DefaultShards() int {
	return NormalizeShards(0)
}

// NormalizeShards clamps n to [1, MaxShards] and rounds it up to a power of
// two (the shard mask requires one). Non-positive n selects DefaultShards.
func NormalizeShards(n int) int {
	return shard.Normalize(n, MaxShards)
}

// storeShard is one stripe of the store.
type storeShard struct {
	mu     sync.RWMutex
	copies map[model.ItemID]Copy
	// sealed marks copies as referenced by an in-progress checkpoint
	// capture: the next install must clone the map first (copy-on-write),
	// so the capture can read the sealed map without holding any lock.
	sealed bool
	// dirtyEpoch is the store's capture epoch at the last install; a
	// checkpoint delta carries exactly the shards whose dirtyEpoch is at or
	// after the previous capture's epoch.
	dirtyEpoch atomic.Uint64
	// dirty maps each written item to the capture epoch of its last
	// install (one map insert per install). Delta captures read it so a
	// hot shard's delta carries only its written items, not the whole
	// shard map; entries below the capture's since-epoch are pruned during
	// the sweep. Nil when item-granular tracking is disabled (the
	// shard-granular ablation).
	dirty map[model.ItemID]uint64
	// hits counts point lookups (Get/Has), installs counts version-guarded
	// writes that took effect — the per-shard traffic counters behind the
	// monitor's hash-skew panel. Atomic so read paths never write-lock.
	hits     atomic.Uint64
	installs atomic.Uint64
}

// Store holds a site's copies across a fixed set of shards.
type Store struct {
	shards []storeShard
	mask   uint32
	// epoch is the capture epoch: incremented by BeginCapture, stamped into
	// each shard's dirtyEpoch (and dirty-item entry) on install.
	epoch atomic.Uint64
	// itemDirty enables per-item dirty tracking (on by default); see
	// storeShard.dirty. TrackDirtyItems(false) selects the shard-granular
	// ablation.
	itemDirty bool
}

// New returns an empty store with the default shard count.
func New() *Store { return NewSharded(0) }

// NewSharded returns an empty store with n shards (normalized to a power of
// two; n <= 0 selects the default).
func NewSharded(n int) *Store {
	n = NormalizeShards(n)
	s := &Store{shards: make([]storeShard, n), mask: uint32(n - 1), itemDirty: true}
	s.epoch.Store(1)
	for i := range s.shards {
		s.shards[i].copies = make(map[model.ItemID]Copy)
		s.shards[i].dirty = make(map[model.ItemID]uint64)
	}
	return s
}

// TrackDirtyItems toggles per-item dirty tracking (on by default). With it
// off, delta captures fall back to whole dirty shards — the pre-item
// behavior, kept as an ablation knob (`-checkpoint-dirty-items=false`).
// Call before the store serves traffic.
func (s *Store) TrackDirtyItems(enable bool) {
	s.lockAll()
	defer s.unlockAll()
	s.itemDirty = enable
	for i := range s.shards {
		if enable {
			if s.shards[i].dirty == nil {
				s.shards[i].dirty = make(map[model.ItemID]uint64)
			}
		} else {
			s.shards[i].dirty = nil
		}
	}
}

// ShardCount returns the number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

func (s *Store) shardOf(item model.ItemID) *storeShard {
	return &s.shards[shard.Hash(item)&s.mask]
}

// lockAll write-locks every shard in index order (the store-wide lock
// acquisition order; all multi-shard paths follow it).
func (s *Store) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// rlockAll read-locks every shard in index order.
func (s *Store) rlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
}

func (s *Store) runlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
}

// Init (re)creates the copies this site hosts with their initial values at
// version 0, per the database schema in the name-server catalog.
func (s *Store) Init(items map[model.ItemID]int64) {
	s.lockAll()
	defer s.unlockAll()
	epoch := s.epoch.Load()
	for i := range s.shards {
		// Fresh maps: a sealed map stays with its capture untouched.
		s.shards[i].copies = make(map[model.ItemID]Copy)
		s.shards[i].sealed = false
		s.shards[i].dirtyEpoch.Store(epoch)
		if s.itemDirty {
			s.shards[i].dirty = make(map[model.ItemID]uint64)
		}
	}
	for item, v := range items {
		s.shardOf(item).copies[item] = Copy{Value: v}
	}
}

// Get returns the current copy of an item.
func (s *Store) Get(item model.ItemID) (Copy, bool) {
	sh := s.shardOf(item)
	sh.hits.Add(1)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.copies[item]
	return c, ok
}

// Has reports whether this site hosts a copy of item.
func (s *Store) Has(item model.ItemID) bool {
	sh := s.shardOf(item)
	sh.hits.Add(1)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.copies[item]
	return ok
}

// Apply installs write records. Absolute records are version-guarded and
// therefore idempotent: a record only takes effect if its version exceeds
// the copy's current version, which makes WAL replay safe to repeat. Delta
// records (commutative blind adds) merge value += delta at version+1 and are
// NOT idempotent — their exactly-once contract is enforced upstream by the
// participant's decision table and the checkpoint horizon.
//
// All shards touched by the write set are locked (in index order) for the
// whole installation, so a Snapshot never observes half a transaction.
func (s *Store) Apply(writes []model.WriteRecord) error {
	if len(writes) == 0 {
		return nil
	}
	// Fast path: a write set confined to one shard needs no ordering dance.
	first := s.shardOf(writes[0].Item)
	multi := false
	for _, w := range writes[1:] {
		if s.shardOf(w.Item) != first {
			multi = true
			break
		}
	}
	if !multi {
		first.mu.Lock()
		defer first.mu.Unlock()
		return s.applyLocked(first, writes)
	}

	// Group the writes per shard index (preserving per-item order), lock
	// the touched shards in index order, then install each group.
	grouped := make(map[int][]model.WriteRecord, 4)
	for _, w := range writes {
		idx := int(shard.Hash(w.Item) & s.mask)
		grouped[idx] = append(grouped[idx], w)
	}
	order := make([]int, 0, len(grouped))
	for idx := range grouped {
		order = append(order, idx)
	}
	sort.Ints(order)
	for _, idx := range order {
		s.shards[idx].mu.Lock()
	}
	defer func() {
		for _, idx := range order {
			s.shards[idx].mu.Unlock()
		}
	}()
	for _, idx := range order {
		if err := s.applyLocked(&s.shards[idx], grouped[idx]); err != nil {
			return err
		}
	}
	return nil
}

// applyLocked installs writes into sh, which the caller holds locked. A
// sealed shard is cloned before the first effective install (copy-on-write):
// the sealed map belongs to an in-progress checkpoint capture and must stay
// exactly as captured.
func (s *Store) applyLocked(sh *storeShard, writes []model.WriteRecord) error {
	for _, w := range writes {
		c, ok := sh.copies[w.Item]
		if !ok {
			return fmt.Errorf("storage: no copy of %s on this site", w.Item)
		}
		// Delta records merge into the current value and bump the version by
		// one, bypassing the version guard: concurrent commutative adds may
		// carry colliding coordinator-assigned versions (each saw the same
		// base), yet every delta must still take effect exactly once. The
		// at-most-once guarantee moves from the version guard to the callers
		// (decision-table idempotency, checkpoint horizon exactness).
		// Absolute records keep the version guard, which makes their replay
		// idempotent.
		var next Copy
		if w.Delta {
			next = Copy{Value: c.Value + w.Value, Version: c.Version + 1}
		} else if w.Version > c.Version {
			next = Copy{Value: w.Value, Version: w.Version}
		} else {
			continue
		}
		if sh.sealed {
			clone := make(map[model.ItemID]Copy, len(sh.copies))
			for k, v := range sh.copies {
				clone[k] = v
			}
			sh.copies = clone
			sh.sealed = false
		}
		sh.copies[w.Item] = next
		sh.installs.Add(1)
		epoch := s.epoch.Load()
		sh.dirtyEpoch.Store(epoch)
		if sh.dirty != nil {
			sh.dirty[w.Item] = epoch
		}
	}
	return nil
}

// Capture is one copy-on-write capture of the store, taken by the
// checkpoint manager under its snapshot gate. BeginCapture only seals the
// dirty shards — O(shards), no item data is touched — so the gate is
// released before the O(data) Collect step runs. Installs arriving after
// the seal clone their shard's map first, leaving the sealed maps frozen at
// capture time.
type Capture struct {
	// Epoch is this capture's epoch; pass it as since to the next
	// BeginCapture to capture exactly the shards dirtied in between.
	Epoch uint64
	// Dirty is the number of shards captured, Total the shard count.
	Dirty int
	Total int
	parts []capturePart
	items int
}

// capturePart pairs a sealed shard with the map reference captured from it
// (the shard's live map may move on via a copy-on-write clone). For
// item-granular delta captures, items narrows the capture to the shard's
// written items; nil means the whole map (full captures, or the
// shard-granular ablation).
type capturePart struct {
	sh    *storeShard
	m     map[model.ItemID]Copy
	items []model.ItemID
}

// BeginCapture seals every shard whose last install happened at or after
// epoch since (since 0 seals everything — a full capture) and returns the
// sealed map set. Each dirty shard's lock is taken only to flip the seal
// bit — and, on item-granular delta captures, to sweep its dirty-item set:
// the delta then carries exactly the items written since the previous
// capture, not the whole shard map, so the gate-held work is O(shards +
// items written), never O(store). Entries below since are pruned during
// the sweep (no earlier capture can need them; a failed attempt retries
// with the same since, which the sweep preserves). The caller must exclude
// installs for the duration of the call (the checkpoint gate does); reads
// never block on it.
func (s *Store) BeginCapture(since uint64) *Capture {
	c := &Capture{Epoch: s.epoch.Add(1), Total: len(s.shards)}
	itemGranular := s.itemDirty && since > 0
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.dirtyEpoch.Load() < since {
			continue
		}
		sh.mu.Lock()
		sh.sealed = true
		part := capturePart{sh: sh, m: sh.copies}
		if itemGranular && sh.dirty != nil {
			part.items = make([]model.ItemID, 0, len(sh.dirty))
			for item, epoch := range sh.dirty {
				if epoch >= since {
					part.items = append(part.items, item)
				} else {
					delete(sh.dirty, item)
				}
			}
			c.items += len(part.items)
		} else {
			c.items += len(sh.copies)
		}
		c.parts = append(c.parts, part)
		sh.mu.Unlock()
		c.Dirty++
	}
	return c
}

// Collect copies the captured shards' contents into one map, then releases
// the seals so later installs mutate in place again instead of paying a
// copy-on-write clone for a capture that no longer needs the map. The copy
// itself takes no locks: sealed maps are immutable — an install arriving
// before its shard is unsealed clones the map before writing. Call Collect
// exactly once per capture, and never overlap two captures of one store
// (the checkpoint manager serializes them).
func (c *Capture) Collect() map[model.ItemID]Copy {
	out := make(map[model.ItemID]Copy, c.items)
	for _, p := range c.parts {
		if p.items != nil {
			for _, item := range p.items {
				if v, ok := p.m[item]; ok {
					out[item] = v
				}
			}
			continue
		}
		for k, v := range p.m {
			out[k] = v
		}
	}
	for _, p := range c.parts {
		p.sh.mu.Lock()
		p.sh.sealed = false
		p.sh.mu.Unlock()
	}
	return out
}

// Items returns the number of copies the capture holds.
func (c *Capture) Items() int { return c.items }

// DirtyShards counts shards with an install at or after epoch since — the
// size of the next delta capture, surfaced as a durability gauge.
func (s *Store) DirtyShards(since uint64) int {
	n := 0
	for i := range s.shards {
		if s.shards[i].dirtyEpoch.Load() >= since {
			n++
		}
	}
	return n
}

// ShardStat is one shard's occupancy and traffic counters.
type ShardStat struct {
	// Items is the shard's current copy count.
	Items int
	// Hits counts point lookups served; Installs counts writes installed.
	Hits     uint64
	Installs uint64
}

// ShardStats reports per-shard occupancy and traffic, the data behind the
// monitor's hash-skew indicator.
func (s *Store) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n := len(sh.copies)
		sh.mu.RUnlock()
		out[i] = ShardStat{Items: n, Hits: sh.hits.Load(), Installs: sh.installs.Load()}
	}
	return out
}

// ResetShardStats zeroes the per-shard traffic counters (a new measurement
// window; occupancy is a gauge and unaffected).
func (s *Store) ResetShardStats() {
	for i := range s.shards {
		s.shards[i].hits.Store(0)
		s.shards[i].installs.Store(0)
	}
}

// Items returns the hosted item ids in sorted order.
func (s *Store) Items() []model.ItemID {
	s.rlockAll()
	defer s.runlockAll()
	var out []model.ItemID
	for i := range s.shards {
		for item := range s.shards[i].copies {
			out = append(out, item)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot returns a consistent copy of the whole store (for monitors,
// tests and the GUI's display panels). All shards are read-locked in index
// order for the duration, making the snapshot atomic against Apply.
func (s *Store) Snapshot() map[model.ItemID]Copy {
	s.rlockAll()
	defer s.runlockAll()
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].copies)
	}
	out := make(map[model.ItemID]Copy, n)
	for i := range s.shards {
		for k, v := range s.shards[i].copies {
			out[k] = v
		}
	}
	return out
}

// RecoveredTx describes an in-doubt transaction found during WAL replay: it
// was prepared here but no decision record exists. The recovering site must
// re-protect its write set and resolve the outcome via the commit protocol's
// termination path.
type RecoveredTx struct {
	Tx           model.TxID
	TS           model.Timestamp
	Coordinator  model.SiteID
	Participants []model.SiteID
	// Voters is the 3PC termination electorate recorded with the prepare.
	Voters     []model.SiteID
	ThreePhase bool
	Writes     []model.WriteRecord
	// EA is the highest termination ballot this site promised (RecElect /
	// RecPreDecide records), EB the ballot of the last pre-decision it
	// accepted, and PreDecide that pre-decision's direction (valid only
	// when EB is set): 3PC members rejoin quorum termination with exactly
	// the state they logged. A logged pre-decision counts even if the ack
	// never left the pre-crash process (logged-means-accepted).
	EA, EB    model.Ballot
	PreDecide bool
}

// Recover rebuilds the store from initial values plus a WAL: committed
// transactions' writes are re-installed (version-guarded, so replay is
// idempotent even if the pre-crash process already applied them), and the
// in-doubt transactions are returned for ACP-level resolution.
func (s *Store) Recover(items map[model.ItemID]int64, log wal.Log) ([]RecoveredTx, error) {
	recs, err := log.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("storage: recover: %w", err)
	}
	return s.RecoverRecords(items, nil, 0, recs)
}

// RecoverRecords rebuilds the store from initial values, an optional
// checkpoint snapshot, and the retained WAL records. The snapshot is
// installed first; redo then applies only decisions at or after horizon —
// everything below it is already reflected in the snapshot (the checkpoint
// manager's gate guarantees that). Retained records below the horizon are
// still scanned: they are the pinned Prepared records of in-doubt
// transactions, which are returned for ACP-level termination exactly like
// in-doubt transactions from after the horizon.
//
// A nil snapshot with horizon 0 is the full-history replay path (a site
// that never checkpointed).
func (s *Store) RecoverRecords(items map[model.ItemID]int64, snapshot map[model.ItemID]Copy, horizon uint64, recs []wal.Record) ([]RecoveredTx, error) {
	s.Init(items)
	if len(snapshot) > 0 {
		s.lockAll()
		for item, c := range snapshot {
			sh := s.shardOf(item)
			// Install only items the current schema still places here.
			if _, ok := sh.copies[item]; ok {
				sh.copies[item] = c
			}
		}
		s.unlockAll()
	}

	prepared := make(map[model.TxID]wal.Record)
	type termState struct {
		ea, eb    model.Ballot
		preDecide bool
	}
	terms := make(map[model.TxID]*termState)
	term := func(tx model.TxID) *termState {
		t, ok := terms[tx]
		if !ok {
			t = &termState{}
			terms[tx] = t
		}
		return t
	}
	var order []model.TxID
	for _, r := range recs {
		switch r.Type {
		case wal.RecPrepared:
			if _, dup := prepared[r.Tx]; !dup {
				order = append(order, r.Tx)
			}
			prepared[r.Tx] = r
		case wal.RecElect:
			if t := term(r.Tx); t.ea.Less(r.Ballot) {
				t.ea = r.Ballot
			}
		case wal.RecPreDecide:
			// The highest-ballot pre-decision wins (appends can land out of
			// ballot order when an election races a stale pre-decision).
			t := term(r.Tx)
			if t.eb.Less(r.Ballot) || (t.eb.IsZero() && r.Ballot.IsZero()) {
				t.eb, t.preDecide = r.Ballot, r.Commit
			}
			if t.ea.Less(r.Ballot) {
				t.ea = r.Ballot
			}
		case wal.RecDecision:
			p, ok := prepared[r.Tx]
			if r.Commit && ok && r.LSN >= horizon {
				if err := s.Apply(p.Writes); err != nil {
					return nil, err
				}
			}
			delete(prepared, r.Tx)
			delete(terms, r.Tx)
		case wal.RecEnd:
			delete(prepared, r.Tx)
			delete(terms, r.Tx)
		}
	}

	var inDoubt []RecoveredTx
	for _, tx := range order {
		p, ok := prepared[tx]
		if !ok {
			continue
		}
		rec := RecoveredTx{
			Tx:           p.Tx,
			TS:           p.TS,
			Coordinator:  p.Coordinator,
			Participants: p.Participants,
			Voters:       p.Voters,
			ThreePhase:   p.ThreePhase,
			Writes:       p.Writes,
		}
		if t, ok := terms[tx]; ok {
			rec.EA, rec.EB, rec.PreDecide = t.ea, t.eb, t.preDecide
		}
		inDoubt = append(inDoubt, rec)
	}
	return inDoubt, nil
}
