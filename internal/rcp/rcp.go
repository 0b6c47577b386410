// Package rcp implements Rainbow's replication control protocols (RCPs):
// Read-One-Write-All (ROWA) and weighted-voting Quorum Consensus (QC, the
// paper's default). The RCP runs at a transaction's home site and maps each
// logical operation onto physical copy operations at other sites, which
// pass through those sites' CCPs (paper §2.1).
//
// The RCP layer is where Rainbow classifies replication-level aborts: a
// logical operation that cannot reach enough copies aborts the transaction
// with cause RCP; a copy operation rejected by a remote CCP propagates its
// CC abort unchanged.
package rcp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/wire"
)

// CopyOp is one physical copy operation on one item's copy: a read
// (model.OpRead), a pre-write of Value (model.OpWrite), or a pre-write of
// the commutative blind add of delta Value (model.OpAdd), which merges into
// the copy at commit.
type CopyOp struct {
	Kind  model.OpKind
	Item  model.ItemID
	Value int64
}

// CopyResult is the outcome of one copy operation at one site: the value
// read (reads only), the copy's current version, and the serving site's
// incarnation number (0 if unknown), which the session records so the
// prepare can be fenced against a crash recovery at that site in between.
type CopyResult struct {
	Site        model.SiteID
	Value       int64
	Version     model.Version
	Incarnation uint64
	Err         error
}

// CopyAccess is the home site's handle for operating on physical copies:
// the home site's own copy directly through its CCP, remote copies
// asynchronously through the wire layer, so one round can have every
// remote leg in flight at once without a goroutine per leg.
type CopyAccess interface {
	// Local returns the home site's id (preferred for read-one locality).
	Local() model.SiteID
	// OpTimeout bounds one round of remote copy operations: a site that
	// has not answered by then counts as unreachable for that attempt.
	OpTimeout() time.Duration
	// LocalCopy runs op on the home site's own copy through its CCP.
	LocalCopy(ctx context.Context, tx model.TxID, ts model.Timestamp, op CopyOp) CopyResult
	// SendCopy sends op to a remote copy site and returns without waiting,
	// naming the call with a nonzero ID. The result arrives on results
	// later, unless Forget(call) runs first; the sender must not block, so
	// the caller keeps a free slot in results for every call in flight. An
	// error means nothing was sent.
	SendCopy(ctx context.Context, site model.SiteID, tx model.TxID, ts model.Timestamp, op CopyOp, results chan<- CopyResult) (call uint64, err error)
	// Forget abandons a sent copy operation: a result arriving later is
	// dropped.
	Forget(call uint64)
}

// Session accumulates one transaction's replication state at its home site:
// the set of sites touched (the future commit cohort) and the final write
// records each participant must install.
type Session struct {
	Tx model.TxID
	TS model.Timestamp

	mu        sync.Mutex
	touched   map[model.SiteID]bool
	attempted map[model.SiteID]bool
	writes    map[model.SiteID]map[model.ItemID]model.WriteRecord
	// incs records, per site, the incarnation number the site reported on
	// this transaction's FIRST copy operation there. The prepare echoes it
	// so the site can reject exactly when it crash-recovered (or was
	// live-rebuilt) after protecting the operation — the CC state backing
	// the prepare died with the old incarnation.
	incs map[model.SiteID]uint64
}

// NewSession starts a session for one transaction.
func NewSession(tx model.TxID, ts model.Timestamp) *Session {
	return &Session{
		Tx:        tx,
		TS:        ts,
		touched:   make(map[model.SiteID]bool),
		attempted: make(map[model.SiteID]bool),
		writes:    make(map[model.SiteID]map[model.ItemID]model.WriteRecord),
		incs:      make(map[model.SiteID]uint64),
	}
}

// Touch records that site holds CC state for the transaction.
func (s *Session) Touch(site model.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched[site] = true
	s.attempted[site] = true
}

// Attempt records that a copy operation was SENT to site, whether or not a
// response arrived. A request that times out at the coordinator may still
// succeed late at the site, leaving CC state there; the home site must
// release such sites at the end of the transaction even though they never
// became participants.
func (s *Session) Attempt(site model.SiteID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted[site] = true
}

// Strays returns the attempted sites that did not become participants —
// the set the home site must send releases to regardless of outcome.
func (s *Session) Strays() []model.SiteID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []model.SiteID
	for site := range s.attempted {
		if !s.touched[site] {
			out = append(out, site)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SawIncarnation records the incarnation number site reported on a copy
// operation. The first observation wins: if the site restarts mid-
// transaction, later operations would report a newer incarnation, but the
// protection of the EARLIER operations is what the prepare must verify.
func (s *Session) SawIncarnation(site model.SiteID, inc uint64) {
	if inc == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.incs[site]; !ok {
		s.incs[site] = inc
	}
}

// IncarnationFor returns the incarnation recorded for site (0 = none).
func (s *Session) IncarnationFor(site model.SiteID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incs[site]
}

// WriteSites returns the sites holding write records — the 3PC termination
// electorate (read-only participants are excluded from quorum counting).
func (s *Session) WriteSites() []model.SiteID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]model.SiteID, 0, len(s.writes))
	for site, m := range s.writes {
		if len(m) > 0 {
			out = append(out, site)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RecordWrite records the final write record site must install at commit.
// A later write of the same item by the same transaction replaces the
// earlier record.
func (s *Session) RecordWrite(site model.SiteID, rec model.WriteRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched[site] = true
	if s.writes[site] == nil {
		s.writes[site] = make(map[model.ItemID]model.WriteRecord)
	}
	s.writes[site][rec.Item] = rec
}

// RecordAdd merges a delta write record for site: repeated adds of the same
// item by one transaction sum their deltas (RecordWrite's last-wins rule
// would lose the earlier ones), keeping the larger install version.
func (s *Session) RecordAdd(site model.SiteID, rec model.WriteRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touched[site] = true
	if s.writes[site] == nil {
		s.writes[site] = make(map[model.ItemID]model.WriteRecord)
	}
	if old, ok := s.writes[site][rec.Item]; ok && old.Delta && rec.Delta {
		rec.Value += old.Value
		if old.Version > rec.Version {
			rec.Version = old.Version
		}
	}
	s.writes[site][rec.Item] = rec
}

// WriteQuorum returns the sites already holding a write record for item —
// the write quorum a previous logical write of this transaction built —
// and that record. A repeated write MUST update exactly this set: building
// a fresh quorum could leave a non-overlapping member of the old one with
// the stale record, and commit would then install two different values
// under one version number on different copies.
func (s *Session) WriteQuorum(item model.ItemID) ([]model.SiteID, model.WriteRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sites []model.SiteID
	var rec model.WriteRecord
	found := false
	for site, m := range s.writes {
		if r, ok := m[item]; ok {
			sites = append(sites, site)
			rec, found = r, true
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites, rec, found
}

// Participants returns every touched site in sorted order — the atomic
// commit cohort (read-only participants included: under strict CC they hold
// read locks that only the commit protocol releases).
func (s *Session) Participants() []model.SiteID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]model.SiteID, 0, len(s.touched))
	for site := range s.touched {
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WritesFor returns the write records site must install, sorted by item.
func (s *Session) WritesFor(site model.SiteID) []model.WriteRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.writes[site]
	out := make([]model.WriteRecord, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Item < out[j].Item })
	return out
}

// HasWrites reports whether any site has pending write records.
func (s *Session) HasWrites() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.writes {
		if len(m) > 0 {
			return true
		}
	}
	return false
}

// Protocol is a replication control protocol.
type Protocol interface {
	// Name returns "rowa" or "qc".
	Name() string
	// Read performs a logical read of the item described by meta.
	Read(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta) (int64, error)
	// Write performs a logical write: pre-writes enough copies and records
	// the final write records (with install versions) in the session.
	Write(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, value int64) error
	// Add performs a logical blind add: the delta merges into every copy at
	// commit. BOTH protocols pre-add ALL copies: a delta missing from a copy
	// cannot be reconstructed by a version-based quorum read (versions say
	// which copy is newest, not which deltas it absorbed), so add
	// availability follows ROWA's write-all rule even under QC.
	Add(ctx context.Context, acc CopyAccess, sess *Session, meta schema.ItemMeta, delta int64) error
}

// New constructs a protocol by name.
func New(name string) (Protocol, error) {
	switch name {
	case "qc", "QC", "":
		return QC{}, nil
	case "rowa", "ROWA":
		return ROWA{}, nil
	default:
		return nil, fmt.Errorf("rcp: unknown replication control protocol %q", name)
	}
}

// Names lists the available RCP names.
func Names() []string { return []string{"rowa", "qc"} }

// preferredOrder lists the copy sites for meta with the local site first,
// then the rest sorted — the deterministic preference order both protocols
// use.
func preferredOrder(acc CopyAccess, meta schema.ItemMeta) []model.SiteID {
	sites := meta.Sites()
	local := acc.Local()
	out := make([]model.SiteID, 0, len(sites))
	if _, ok := meta.Votes[local]; ok {
		out = append(out, local)
	}
	for _, s := range sites {
		if s != local {
			out = append(out, s)
		}
	}
	return out
}

// isCC reports whether err is a protocol abort that must stop the
// transaction (as opposed to a copy being unreachable, which the RCP may
// route around).
func isCC(err error) bool {
	c := model.CauseOf(err)
	return c == model.AbortCC || c == model.AbortACP || c == model.AbortInjected
}

// errNoReply is the result of a remote leg that did not answer within its
// round. It is a replication-level failure (the copy is unreachable for
// this attempt), not a CC rejection, so QC re-picks around it.
var errNoReply = &model.AbortError{Cause: model.AbortRCP, Reason: "copy site did not reply within the operation timeout"}

// round runs op at every site in sites at once and returns the results in
// sites order. It sends every remote leg first, runs the home site's own
// leg inline, then collects the remote results on one channel until all
// are in, one OpTimeout deadline passes, or ctx ends (wire.Collect): one
// timer per round, no goroutine or timeout context per leg.
//
// Every site is recorded as attempted before it is sent to; a site that
// answered, or whose CCP rejected the operation, is touched (it holds CC
// state to release). A CC rejection dooms the transaction, so the round
// stops at the first one. Legs still unanswered when the round ends are
// forgotten — a late reply is dropped, and the site stays a stray for the
// home site to release — and carry errNoReply (or ctx's error).
func round(ctx context.Context, acc CopyAccess, sess *Session, sites []model.SiteID, op CopyOp) []CopyResult {
	out := make([]CopyResult, len(sites))
	calls := make([]uint64, len(sites)) // nonzero while a remote leg is unanswered
	pending, local := 0, -1
	var results chan CopyResult
	for i, site := range sites {
		out[i].Site = site
		sess.Attempt(site)
		if site == acc.Local() {
			local = i
			continue
		}
		if results == nil {
			results = make(chan CopyResult, len(sites))
		}
		call, err := acc.SendCopy(ctx, site, sess.Tx, sess.TS, op, results)
		if err != nil {
			out[i].Err = err
			continue
		}
		calls[i] = call
		pending++
	}
	if pending > 0 && local >= 0 {
		// The sends woke the connections' writer goroutines, the last one
		// into this P's run-next slot, where it would wait until this
		// goroutine blocks. Yield so the requests flush first.
		runtime.Gosched()
	}
	doomed := false
	if local >= 0 {
		out[local] = acc.LocalCopy(ctx, sess.Tx, sess.TS, op)
		out[local].Site = sites[local]
		doomed = settle(sess, out[local])
	}
	if !doomed {
		wire.Collect(ctx, results, pending, acc.OpTimeout(), func(r CopyResult) bool {
			i := slices.Index(sites, r.Site)
			out[i], calls[i] = r, 0
			return !settle(sess, r)
		})
	}
	for i, call := range calls {
		if call != 0 {
			acc.Forget(call)
			out[i].Err = errNoReply
			if err := ctx.Err(); err != nil {
				out[i].Err = err
			}
		}
	}
	return out
}

// settle records one leg's outcome in the session and reports whether it
// dooms the transaction (a CC rejection).
func settle(sess *Session, r CopyResult) bool {
	switch {
	case r.Err == nil:
		sess.SawIncarnation(r.Site, r.Incarnation)
		sess.Touch(r.Site)
	case isCC(r.Err):
		// The remote CCP rejected the operation: that site holds CC state
		// to release.
		sess.Touch(r.Site)
		return true
	}
	return false
}

// writeAll pre-writes op at EVERY copy of the item in one round — ROWA's
// write and both protocols' blind add (see Protocol.Add for why QC cannot
// use a quorum there). A CC rejection propagates; any unreachable copy
// aborts with cause RCP, naming what failed ("rowa: write-all", ...). It
// returns the sites in preference order and max(version)+1 over all copies,
// the version to record.
func writeAll(ctx context.Context, what string, acc CopyAccess, sess *Session, meta schema.ItemMeta, op CopyOp) ([]model.SiteID, model.Version, error) {
	sites := preferredOrder(acc, meta)
	results := round(ctx, acc, sess, sites, op)
	var maxVer model.Version
	var rcpErr error
	for _, r := range results {
		switch {
		case r.Err == nil:
			maxVer = max(maxVer, r.Version)
		case isCC(r.Err):
			return nil, 0, r.Err
		case rcpErr == nil:
			rcpErr = r.Err
		}
	}
	if rcpErr != nil {
		return nil, 0, model.Abortf(model.AbortRCP, "%s of %s failed: %v", what, meta.Item, rcpErr)
	}
	return sites, maxVer + 1, nil
}

// addAll pre-adds delta at every copy of the item — the shared body of
// ROWA.Add and QC.Add. The recorded install version is max(version)+1 over
// all copies (delta applies ignore it, but it keeps version bookkeeping —
// and quorum reads that follow a committed add — monotonic).
func addAll(ctx context.Context, proto string, acc CopyAccess, sess *Session, meta schema.ItemMeta, delta int64) error {
	sites, ver, err := writeAll(ctx, proto+": add-all", acc, sess, meta, CopyOp{Kind: model.OpAdd, Item: meta.Item, Value: delta})
	if err != nil {
		return err
	}
	rec := model.WriteRecord{Item: meta.Item, Value: delta, Version: ver, Delta: true}
	for _, site := range sites {
		sess.RecordAdd(site, rec)
	}
	return nil
}
