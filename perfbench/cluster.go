package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/nameserver"
	"repro/internal/site"
	"repro/internal/tcpnet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// initialValue is every item's value in the catalog.
const initialValue = 100

// cluster is a name server and numSites sites in this process, connected
// over loopback tcpnet: every remote copy operation crosses a real socket.
type cluster struct {
	spec  clusterSpec
	ids   []model.SiteID
	items []model.ItemID
	tcp   *tcpnet.Net
	ns    *nameserver.Server
	sites []*site.Site
	logs  []siteLog
	// walDir holds the durable workload's per-site WAL directories.
	walDir string
	// probes is set on traced clusters only.
	probes *probes
}

// probes are the traced run's timing wrappers' counters.
type probes struct {
	wire    wireProbe
	appends timer // WAL Append/AppendBatch
	saves   timer // checkpoint Store.Save
}

// clusterSpec says how to build a cluster.
type clusterSpec struct {
	w workload
	// traced samples every transaction and installs the timing wrappers.
	traced bool
	// workdir is where a durable workload's WAL directory is created.
	workdir string
	// walDelay is added to every timed WAL append; see timedLog.delay.
	walDelay time.Duration
}

// newCluster builds the catalog, the name server and the sites, opening
// their WALs, and returns once a transaction may be submitted. This is the
// benchmark's set-up.
func newCluster(spec clusterSpec) (c *cluster, err error) {
	exp := config.Default()
	exp.Name = spec.w.name
	exp.Sites = exp.Sites[:0]
	for i := 1; i <= numSites; i++ {
		exp.Sites = append(exp.Sites, model.SiteID(fmt.Sprintf("S%d", i)))
	}
	exp.Items = make(map[model.ItemID]int64, spec.w.items)
	items := make([]model.ItemID, 0, spec.w.items)
	for i := 0; i < spec.w.items; i++ {
		id := model.ItemID(fmt.Sprintf("i%04d", i))
		exp.Items[id] = initialValue
		items = append(items, id)
	}
	if spec.w.checkpoint {
		exp.CheckpointBytes = checkpointBytes
	}
	if spec.traced {
		exp.TraceSampleRate = 1
	}
	cat, err := exp.BuildCatalog()
	if err != nil {
		return nil, err
	}

	c = &cluster{spec: spec, ids: exp.Sites, items: items, tcp: tcpnet.New(map[model.SiteID]string{})}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	var net wire.Network = c.tcp
	if spec.traced {
		c.probes = new(probes)
		net = &timedNet{Net: c.tcp, probe: &c.probes.wire}
	}
	if spec.w.durable {
		if c.walDir, err = os.MkdirTemp(spec.workdir, "wal-"); err != nil {
			return nil, err
		}
	}
	if c.ns, err = nameserver.New(net, cat); err != nil {
		return nil, err
	}
	for _, id := range exp.Sites {
		cfg := site.Config{ID: id, Net: net, Catalog: cat.Clone()}
		var log siteLog
		if spec.w.durable {
			dir := filepath.Join(c.walDir, string(id))
			if log, err = wal.OpenSegmented(dir, wal.SegmentOptions{Sync: true}); err != nil {
				return nil, err
			}
			if spec.traced {
				cfg.Snapshots = checkpoint.NewDirStore(dir)
			}
		} else {
			log = wal.NewMemory()
			if spec.traced {
				cfg.Snapshots = checkpoint.NewMemStore()
			}
		}
		c.logs = append(c.logs, log)
		cfg.Log = log
		if spec.traced {
			// site.New picks a snapshot store by the log's concrete type,
			// which the wrapper hides, so the store is passed explicitly.
			cfg.Snapshots = &timedStore{Store: cfg.Snapshots, saves: &c.probes.saves}
			cfg.Log = &timedLog{siteLog: log, appends: &c.probes.appends, delay: spec.walDelay}
		}
		var st *site.Site
		if st, err = site.New(cfg); err != nil {
			log.Close()
			return nil, err
		}
		c.sites = append(c.sites, st)
	}
	return c, nil
}

// close stops the sites (closing their WALs) and the name server, and
// removes the WAL directory.
func (c *cluster) close() {
	for _, s := range c.sites {
		s.Close()
	}
	if c.ns != nil {
		c.ns.Close()
	}
	if c.walDir != "" {
		os.RemoveAll(c.walDir)
	}
}
