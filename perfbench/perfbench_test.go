package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/model"
	"repro/internal/site"
	"repro/internal/tcpnet"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// TestWrappersKeepOptionalInterfaces checks that every timing wrapper still
// satisfies each optional interface the site probes its dependencies for.
func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	seg, err := wal.OpenSegmented(t.TempDir(), wal.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for name, inner := range map[string]siteLog{"memory": wal.NewMemory(), "segmented": seg} {
		var l wal.Log = &timedLog{siteLog: inner, appends: new(timer)}
		if _, ok := l.(wal.Observable); !ok {
			t.Errorf("%s log wrapper hides wal.Observable", name)
		}
		if _, ok := l.(wal.BatchStats); !ok {
			t.Errorf("%s log wrapper hides wal.BatchStats", name)
		}
		if _, ok := l.(wal.Compactable); !ok {
			t.Errorf("%s log wrapper hides wal.Compactable: checkpoints would be off", name)
		}
	}

	var n wire.Network = &timedNet{Net: tcpnet.New(nil), probe: new(wireProbe)}
	if _, ok := n.(wire.BatchNetwork); !ok {
		t.Error("net wrapper hides wire.BatchNetwork: peers would fall back to single-envelope delivery")
	}
	if _, ok := n.(interface {
		RegisterTracer(model.SiteID, *trace.Tracer)
	}); !ok {
		t.Error("net wrapper hides RegisterTracer")
	}
	if _, ok := n.(interface{ NetStats() tcpnet.Stats }); !ok {
		t.Error("net wrapper hides NetStats")
	}

	var s checkpoint.Store = &timedStore{Store: checkpoint.NewMemStore(), saves: new(timer)}
	if err := s.Save(&checkpoint.Snapshot{Horizon: 1}); err != nil {
		t.Fatal(err)
	}
	if hs, err := s.Horizons(); err != nil || len(hs) != 1 {
		t.Errorf("store wrapper lost a save: horizons %v, %v", hs, err)
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json's workloads,
// reasons and metrics in step with the ones this program runs and reports.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Why, Unit, Better string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []entry
	for _, w := range workloads {
		if w.unlisted == "" {
			ws = append(ws, entry{Name: w.name, Why: w.why})
		}
	}
	if !slices.Equal(spec.Workloads, ws) {
		t.Errorf("BENCHMARK.json workloads\n%v\nwant\n%v", spec.Workloads, ws)
	}
	for _, c := range []struct {
		name  string
		got   []entry
		decls []metricDecl
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []entry
		for _, d := range c.decls {
			want = append(want, entry{Name: d.name, Unit: d.unit, Better: d.better})
		}
		if !slices.Equal(c.got, want) {
			t.Errorf("BENCHMARK.json %s\n%v\nwant\n%v", c.name, c.got, want)
		}
	}
}

// TestClientStreamsAreDeterministic checks that a client's transactions
// depend only on the workload seed and the client's index.
func TestClientStreamsAreDeterministic(t *testing.T) {
	w, _ := findWorkload("contended-rw")
	c := &cluster{ids: []model.SiteID{"S1", "S2", "S3"}, sites: make([]*site.Site, numSites)}
	for i := 0; i < w.items; i++ {
		c.items = append(c.items, model.ItemID(fmt.Sprintf("i%04d", i)))
	}
	stream := func(seed int64, client int) [][]model.Op {
		cl := newClients(w, seed, c)[client]
		var out [][]model.Op
		for range 20 {
			out = append(out, cl.gen.NextTx())
		}
		return out
	}
	same := func(a, b [][]model.Op) bool {
		return slices.EqualFunc(a, b, func(x, y []model.Op) bool { return slices.Equal(x, y) })
	}
	if !same(stream(7, 1), stream(7, 1)) {
		t.Error("the same seed and client gave different streams")
	}
	if same(stream(7, 1), stream(7, 2)) || same(stream(7, 1), stream(8, 1)) {
		t.Error("different clients or seeds gave the same stream")
	}
}

// TestConservationCheckCatchesLostAdd runs the hot-add workload briefly
// and checks that the conservation check passes, then that it fails once a
// committed delta is miscounted.
func TestConservationCheckCatchesLostAdd(t *testing.T) {
	w, _ := findWorkload("hot-add")
	c, err := newCluster(clusterSpec{w: w})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	cs := newClients(w, 3, c)
	runClients(cs, time.Now().Add(500*time.Millisecond))
	deltas := make(map[model.ItemID]int64)
	for _, cl := range cs {
		for item, d := range cl.deltas {
			deltas[item] += d
		}
	}
	if err := checkConservation(c, deltas); err != nil {
		t.Fatalf("conservation failed on a correct run: %v", err)
	}
	deltas[c.items[0]]++
	if err := checkConservation(c, deltas); err == nil {
		t.Fatal("the conservation check missed a lost add")
	}
}

// TestLedgerAttributesWALDelay slows the WAL wrapper by 1 ms and checks
// that the ledger puts the change in the WAL layer: wal.append_us_p50 and
// p50_ms rise by the delay, while the transport's per-transaction work and
// the RCP operation latency move far less.
func TestLedgerAttributesWALDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two durable-write windows")
	}
	const delay = time.Millisecond
	w, _ := findWorkload("durable-write")
	measure := func(d time.Duration) (map[string]float64, map[string]float64) {
		spec := clusterSpec{w: w, traced: true, workdir: t.TempDir(), walDelay: d}
		m, err := run(spec, 5, 5*time.Second)
		// Slowed appends may leave a site short of the checkpoint
		// threshold in so short a window; every other check must pass.
		if err != nil && !errors.Is(err, errNoCheckpoint) {
			t.Fatal(err)
		}
		return ledgerValues(m, m), endToEndValues(m, 0)
	}
	base, baseE2E := measure(0)
	slow, slowE2E := measure(delay)

	if d := slow["wal.append_us_p50"] - base["wal.append_us_p50"]; d < us(delay) {
		t.Errorf("wal.append_us_p50 rose by %.0f us, want >= %.0f", d, us(delay))
	}
	if d := slowE2E["p50_ms"] - baseE2E["p50_ms"]; d < ms(delay) {
		t.Errorf("p50_ms rose by %.3f ms, want >= %.3f", d, ms(delay))
	}
	for _, name := range []string{"tcpnet.env_per_tx", "tcpnet.bytes_per_tx"} {
		if r := slow[name] / base[name]; math.Abs(r-1) > 0.1 {
			t.Errorf("%s moved by a factor %.2f (%.1f -> %.1f), want within 10%%", name, r, base[name], slow[name])
		}
	}
	for _, name := range []string{"rcp.op_us_p50", "tcpnet.queue_us_p99", "tcpnet.flush_us_mean"} {
		if d := math.Abs(slow[name] - base[name]); d > us(delay)/4 {
			t.Errorf("%s moved by %.0f us (%.1f -> %.1f), want under a quarter of the WAL delay", name, d, base[name], slow[name])
		}
	}
}
