// Package core assembles a complete Rainbow instance: the network
// (simulated by default), the name server with its catalog, the Rainbow
// sites, the fault injector, the workload generator hookup and the progress
// monitor. It is the programmatic equivalent of the paper's GUI session:
// configure sites, database, replication scheme and protocols — then submit
// workloads, inject failures, and read the output statistics.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/failure"
	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/nameserver"
	"repro/internal/schema"
	"repro/internal/simnet"
	"repro/internal/site"
	"repro/internal/wire"
	"repro/internal/wlg"
)

// Options configures an instance. Zero values select the demo defaults:
// three sites, three items replicated everywhere, QC + 2PL + 2PC.
type Options struct {
	// Sites lists the site ids; empty selects {S1, S2, S3}.
	Sites []model.SiteID
	// Items maps each item to its initial value, replicated on every site
	// with majority quorums. For custom placements use Catalog instead.
	Items map[model.ItemID]int64
	// Protocols selects RCP/CCP/ACP (Figure 4's panel).
	Protocols schema.Protocols
	// Timeouts bounds protocol waits.
	Timeouts schema.Timeouts
	// Catalog, when non-nil, overrides Sites/Items/Protocols/Timeouts with
	// a fully custom configuration (Figure A-1's replication panel).
	Catalog *schema.Catalog
	// Net configures the network simulator.
	Net simnet.Config
	// Shards sets each site's data-plane shard count (storage shards and
	// lock stripes); <= 0 selects a GOMAXPROCS-derived default.
	Shards int
	// Checkpoint sets each site's checkpoint/compaction policy; zero falls
	// back to the catalog's policy.
	Checkpoint schema.CheckpointPolicy
	// Trace sets each site's transaction-tracing policy as a site-local
	// override; zero fields fall back to the catalog's policy.
	Trace schema.TracePolicy
	// CatalogPoll, when positive, makes each site probe the name server's
	// catalog epoch at this interval and live-reconfigure when it moved —
	// the safety net under the name server's best-effort push (partitioned
	// or crashed sites converge after healing/recovery). Zero disables.
	CatalogPoll time.Duration
}

// Instance is a running Rainbow system.
type Instance struct {
	Net      *simnet.Net
	NS       *nameserver.Server
	Injector *failure.Injector

	sites map[model.SiteID]*site.Site
	ids   []model.SiteID

	catMu sync.Mutex
	cat   *schema.Catalog
}

// New builds and starts an instance.
func New(opts Options) (*Instance, error) {
	cat := opts.Catalog
	if cat == nil {
		cat = schema.NewCatalog()
		ids := opts.Sites
		if len(ids) == 0 {
			ids = []model.SiteID{"S1", "S2", "S3"}
		}
		for _, id := range ids {
			cat.Sites[id] = schema.SiteInfo{ID: id}
		}
		items := opts.Items
		if len(items) == 0 {
			items = map[model.ItemID]int64{"x": 0, "y": 0, "z": 0}
		}
		for item, initial := range items {
			cat.ReplicateEverywhere(item, initial)
		}
		if opts.Protocols != (schema.Protocols{}) {
			cat.Protocols = opts.Protocols
		}
		cat.Timeouts = opts.Timeouts
	}
	if err := cat.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	net := simnet.New(opts.Net)
	ns, err := nameserver.New(net, cat)
	if err != nil {
		return nil, err
	}
	in := &Instance{
		Net:      net,
		NS:       ns,
		Injector: failure.New(net),
		sites:    make(map[model.SiteID]*site.Site),
		ids:      cat.SiteIDs(),
		cat:      cat.Clone(),
	}
	for _, id := range in.ids {
		st, err := site.New(site.Config{
			ID: id, Net: net, Shards: opts.Shards,
			Checkpoint: opts.Checkpoint, Trace: opts.Trace,
			CatalogPoll: opts.CatalogPoll,
		})
		if err != nil {
			in.Close()
			return nil, err
		}
		in.sites[id] = st
		in.Injector.Register(id, st)
	}
	return in, nil
}

// Close shuts the instance down.
func (in *Instance) Close() {
	for _, st := range in.sites {
		st.Close()
	}
	if in.NS != nil {
		in.NS.Close()
	}
}

// SiteIDs returns the instance's sites in sorted order.
func (in *Instance) SiteIDs() []model.SiteID {
	out := make([]model.SiteID, len(in.ids))
	copy(out, in.ids)
	return out
}

// Site returns a site by id.
func (in *Instance) Site(id model.SiteID) (*site.Site, bool) {
	s, ok := in.sites[id]
	return s, ok
}

// Catalog returns the instance's configuration.
func (in *Instance) Catalog() *schema.Catalog {
	in.catMu.Lock()
	defer in.catMu.Unlock()
	return in.cat.Clone()
}

// UpdateCatalog installs a new catalog version at runtime: the name server
// validates, epoch-stamps and pushes it (a nonzero Epoch on the submitted
// catalog is a compare-and-set token — see nameserver.SetCatalog), and each
// live site is reconfigured in place — no restart, committed data carried
// across re-sharding. The site set is fixed for an instance's lifetime;
// adding or removing sites needs a new instance. Crashed sites are skipped;
// they converge through their catalog poll after recovery (Options.
// CatalogPoll) or stay on their old epoch if polling is off. Returns the
// stamped epoch.
func (in *Instance) UpdateCatalog(cat *schema.Catalog) (uint64, error) {
	cur := in.Catalog()
	if len(cat.Sites) != len(cur.Sites) {
		return 0, fmt.Errorf("core: the site set is fixed at instance creation")
	}
	for id := range cat.Sites {
		if _, ok := in.sites[id]; !ok {
			return 0, fmt.Errorf("core: the site set is fixed at instance creation (unknown site %s)", id)
		}
	}
	if err := in.NS.SetCatalog(cat); err != nil {
		return 0, err
	}
	stamped := in.NS.Catalog()
	in.catMu.Lock()
	// A concurrent UpdateCatalog may have stamped (and cached) a newer
	// epoch between our SetCatalog and the Catalog() read; never regress.
	if stamped.Epoch > in.cat.Epoch {
		in.cat = stamped.Clone()
	}
	in.catMu.Unlock()
	// The name server already pushed over the (simulated) wire; the direct
	// calls below make the common no-fault path deterministic for callers
	// that reconfigure and immediately submit load. Stale-epoch rejects
	// mean the push won the race — fine either way.
	for _, id := range in.ids {
		st := in.sites[id]
		if st.Crashed() {
			continue
		}
		err := st.Reconfigure(stamped.Clone())
		if err != nil && !errors.Is(err, site.ErrStaleEpoch) && !st.Crashed() {
			// A site that crashed mid-call converges later like any other
			// crashed site; only a live site's rebuild failure surfaces.
			return stamped.Epoch, err
		}
	}
	return stamped.Epoch, nil
}

// WaitEpoch polls until every live site runs catalog epoch at least e or
// the timeout expires, returning whether they all converged. Crashed sites
// are ignored (they converge after recovery via their poll loop).
func (in *Instance) WaitEpoch(e uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for _, id := range in.ids {
			st := in.sites[id]
			if !st.Crashed() && st.Epoch() < e {
				converged = false
				break
			}
		}
		if converged {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Submit implements wlg.Submitter: execute one transaction at home.
func (in *Instance) Submit(ctx context.Context, home model.SiteID, ops []model.Op) model.Outcome {
	st, ok := in.sites[home]
	if !ok {
		return model.Outcome{Committed: false, Cause: model.AbortClient, HomeSite: home}
	}
	return st.Execute(ctx, ops)
}

// SubmitManual composes and executes a manual transaction (Figure A-2).
func (in *Instance) SubmitManual(ctx context.Context, home model.SiteID, specs []wlg.Manual) (model.Outcome, error) {
	ops, err := wlg.Compose(specs)
	if err != nil {
		return model.Outcome{}, err
	}
	return in.Submit(ctx, home, ops), nil
}

// RunWorkload runs a simulated workload. Empty profile fields are filled
// from the instance: all sites, all items.
func (in *Instance) RunWorkload(ctx context.Context, profile wlg.Profile) wlg.Result {
	if len(profile.Sites) == 0 {
		profile.Sites = in.SiteIDs()
	}
	if len(profile.Items) == 0 {
		profile.Items = in.Catalog().ItemIDs()
	}
	return wlg.New(profile).Run(ctx, in)
}

// Report gathers the cluster-wide statistics (the Figure-5 panel data).
func (in *Instance) Report() monitor.Report {
	var rep monitor.Report
	for _, id := range in.ids {
		rep.Sites = append(rep.Sites, in.sites[id].Stats())
	}
	ns := in.Net.Stats()
	rep.Net = monitor.NetStats{
		Sent: ns.Sent, Delivered: ns.Delivered, Dropped: ns.Dropped, Bytes: ns.Bytes,
	}
	return rep
}

// ResetStats zeroes all site statistics and network counters, starting a
// fresh measurement window.
func (in *Instance) ResetStats() {
	for _, st := range in.sites {
		st.ResetStats()
	}
	in.Net.ResetStats()
}

// History merges all sites' execution histories.
func (in *Instance) History() []history.Event {
	var recs []*history.Recorder
	for _, id := range in.ids {
		recs = append(recs, in.sites[id].HistoryRecorder())
	}
	return history.Merge(recs...)
}

// CheckSerializable verifies that the committed transactions form a
// conflict-serializable global history.
func (in *Instance) CheckSerializable(committed map[model.TxID]bool) error {
	return history.CheckSerializable(in.History(), committed)
}

// CommittedSet extracts the committed transaction ids from outcomes.
func CommittedSet(outcomes []model.Outcome) map[model.TxID]bool {
	m := make(map[model.TxID]bool)
	for _, o := range outcomes {
		if o.Committed {
			m[o.Tx] = true
		}
	}
	return m
}

// Orphans sums the currently blocked in-doubt transactions across sites.
func (in *Instance) Orphans() int {
	n := 0
	for _, st := range in.sites {
		if !st.Crashed() {
			n += st.InDoubtCount()
		}
	}
	return n
}

// WaitOrphansDrained polls until no site holds in-doubt transactions or the
// timeout expires, returning whether they drained. Used by the E5
// experiments to measure 3PC's non-blocking termination against 2PC.
func (in *Instance) WaitOrphansDrained(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if in.Orphans() == 0 {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return in.Orphans() == 0
}

// Ping checks a site's liveness through the network (a monitor probe).
func (in *Instance) Ping(ctx context.Context, id model.SiteID) error {
	probe, err := wire.NewPeer(in.Net, model.SiteID(fmt.Sprintf("@probe-%d", time.Now().UnixNano())), nil)
	if err != nil {
		return err
	}
	defer probe.Close()
	return probe.Call(ctx, id, wire.KindPing, &wire.PingReq{}, nil)
}
