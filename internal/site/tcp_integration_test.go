package site

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nameserver"
	"repro/internal/schema"
	"repro/internal/tcpnet"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/wlg"
)

// TestTCPDeployment exercises the real multi-process deployment path in one
// process: name server and three sites over TCP with segmented file WALs,
// site registration, a remote workload through the SubmitTx RPC (the WLGlet
// path), and a file-WAL restart.
func TestTCPDeployment(t *testing.T) {
	net := tcpnet.New(nil)

	cat := schema.NewCatalog()
	ids := []model.SiteID{"A", "B", "C"}
	for _, id := range ids {
		cat.Sites[id] = schema.SiteInfo{ID: id}
	}
	cat.ReplicateEverywhere("x", 10)
	cat.ReplicateEverywhere("y", 20)
	cat.Timeouts = schema.Timeouts{
		Op: 2 * time.Second, Vote: 2 * time.Second, Ack: time.Second,
		Lock: time.Second, OrphanResolve: 100 * time.Millisecond,
	}
	ns, err := nameserver.New(net, cat)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	dir := t.TempDir()
	sites := make(map[model.SiteID]*Site)
	logs := make(map[model.SiteID]string)
	for _, id := range ids {
		logs[id] = filepath.Join(dir, string(id)+"-wal")
		fl, err := wal.OpenSegmented(logs[id], wal.SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(Config{ID: id, Net: net, Log: fl, Register: true})
		if err != nil {
			t.Fatal(err)
		}
		sites[id] = st
	}
	defer func() {
		for _, st := range sites {
			st.Close()
		}
	}()

	// Registration reached the name server over TCP.
	if got := len(ns.Catalog().Sites); got != 3 {
		t.Fatalf("registered sites = %d", got)
	}

	// Run a remote workload through the SubmitTx RPC.
	client, err := wire.NewPeer(net, "wlg-client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	gen := wlg.New(wlg.Profile{
		Sites: ids, Items: []model.ItemID{"x", "y"},
		Transactions: 20, MPL: 2, OpsPerTx: 2, ReadFraction: 0.5, Retries: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res := gen.Run(ctx, wlg.RemoteSubmitter{Peer: client})
	if res.Submitted != 20 {
		t.Fatalf("submitted = %d", res.Submitted)
	}
	if res.Committed == 0 {
		t.Fatalf("nothing committed over TCP: %+v", res.ByCause)
	}

	// Write a marker value and restart site A from its on-disk WAL.
	out := wlg.RemoteSubmitter{Peer: client}.Submit(ctx, "A", []model.Op{model.Write("x", 777)})
	if !out.Committed {
		t.Fatalf("marker write failed: %+v", out)
	}
	addr, _ := net.Addr("A")
	sites["A"].Close()
	net.SetAddr("A", addr)
	fl, err := wal.OpenSegmented(logs["A"], wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := New(Config{ID: "A", Net: net, Log: fl})
	if err != nil {
		t.Fatal(err)
	}
	sites["A"] = st2

	read := st2.Execute(ctx, []model.Op{model.Read("x")})
	if !read.Committed || read.Reads["x"] != 777 {
		t.Errorf("read after file-WAL restart = %+v, want x=777", read)
	}
}

// TestTCPCrossProcessCluster runs a cluster split across two transports
// over real TCP, as separate processes would be: sites A and B share one
// net while site C runs on its own, and the two address books only learn
// of each other's sites through SetAddr. The soak-style invariants — every
// submitted transaction decided, committed writes visible, copies of a
// replicated item agreeing at every site — must hold across the split, and
// every body either side sent is binary.
func TestTCPCrossProcessCluster(t *testing.T) {
	abNet := tcpnet.New(nil)
	cNet := tcpnet.New(nil)

	cat := schema.NewCatalog()
	ids := []model.SiteID{"A", "B", "C"}
	for _, id := range ids {
		cat.Sites[id] = schema.SiteInfo{ID: id}
	}
	cat.ReplicateEverywhere("x", 10)
	cat.ReplicateEverywhere("y", 20)
	cat.Timeouts = schema.Timeouts{
		Op: 2 * time.Second, Vote: 2 * time.Second, Ack: time.Second,
		Lock: time.Second, OrphanResolve: 100 * time.Millisecond,
	}

	nets := map[model.SiteID]*tcpnet.Net{"A": abNet, "B": abNet, "C": cNet}
	sites := make(map[model.SiteID]*Site)
	for _, id := range ids {
		st, err := New(Config{ID: id, Net: nets[id], Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		sites[id] = st
	}
	defer func() {
		for _, st := range sites {
			st.Close()
		}
	}()
	// Each net resolved its own listeners' ports; cross-populate so the
	// two address books cover the whole cluster.
	for _, id := range ids {
		addr, ok := nets[id].Addr(id)
		if !ok {
			t.Fatalf("site %s has no resolved address", id)
		}
		for _, other := range []*tcpnet.Net{abNet, cNet} {
			if other != nets[id] {
				other.SetAddr(id, addr)
			}
		}
	}

	client, err := wire.NewPeer(abNet, "wlg-client", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Mixed workload across all three homes: every write 2PC-prepares at
	// all sites (items replicate everywhere), so traffic crosses between
	// the two nets in both directions.
	gen := wlg.New(wlg.Profile{
		Sites: ids, Items: []model.ItemID{"x", "y"},
		Transactions: 30, MPL: 3, OpsPerTx: 2, ReadFraction: 0.5, Retries: 3,
	})
	res := gen.Run(ctx, wlg.RemoteSubmitter{Peer: client})
	if res.Submitted != 30 {
		t.Fatalf("submitted = %d", res.Submitted)
	}
	if res.Committed == 0 {
		t.Fatalf("nothing committed across the two nets: %+v", res.ByCause)
	}

	// Marker write homed at C: its prepares and decisions all cross nets.
	out := wlg.RemoteSubmitter{Peer: client}.Submit(ctx, "C", []model.Op{model.Write("x", 4242)})
	if !out.Committed {
		t.Fatalf("write homed at C failed: %+v", out)
	}

	// Copy agreement: every site's copy of x must converge on the marker
	// value (decision propagation to remote participants is asynchronous,
	// so poll briefly).
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range ids {
		for {
			read := sites[id].Execute(ctx, []model.Op{model.Read("x")})
			if read.Committed && read.Reads["x"] == 4242 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("site %s copy of x = %+v, want 4242", id, read)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	for name, n := range map[string]*tcpnet.Net{"A/B": abNet, "C": cNet} {
		if st := n.NetStats(); st.SentBinaryBodies == 0 || st.SentGobBodies != 0 {
			t.Errorf("%s net body counters: %+v", name, st)
		}
	}
}
