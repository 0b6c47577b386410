package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/internal/history"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/tcpnet"
)

// window is everything one timed window measured, read after the window
// through the program's public functions and the wrappers' counters.
type window struct {
	w        workload
	elapsed  time.Duration
	p        phase // all clients' phases merged
	cpu      time.Duration
	retained int64 // live heap growth over the window
	alloc    uint64
	gcs      uint64

	sites []monitor.SiteStats // window-scoped (ResetStats at its start)
	total monitor.SiteStats   // sites summed; its Net* fields are not used
	net   tcpnet.Stats        // the one network's counters over the window

	eventsPerTx float64 // history events per committed transaction, warm-up included
	walAppended uint64  // bytes appended to the WALs
	walRetained uint64  // bytes the WALs retain at the window's end

	// Traced windows only: the wrappers' counters.
	probes *probes
}

func (m *window) committed() int { return len(m.p.done) }

func (m *window) goodput() float64 {
	return float64(m.committed()) / m.elapsed.Seconds()
}

// run builds a cluster, warms it up, measures one window of the given
// length and checks the outputs. The cluster is closed before the
// serializability check, which then has the cluster's memory to itself.
func run(spec clusterSpec, seed int64, length time.Duration) (*window, error) {
	c, err := newCluster(spec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m, committed, err := measure(c, seed, length)
	var events []history.Event
	for _, s := range c.sites {
		events = append(events, s.History()...)
	}
	c.close()
	if m == nil {
		return nil, err
	}
	m.eventsPerTx = float64(len(events)) / float64(len(committed))
	// The checker allocates several times the history it is given; frequent
	// collections keep the process small while it runs.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	if serr := history.CheckSerializable(events, committed); serr != nil {
		err = errors.Join(err, fmt.Errorf("serializability: %w", serr))
	}
	return m, err
}

// measure drives the cluster through warm-up and the window, then checks
// the outputs that need the cluster running. It returns every transaction
// that committed, warm-up included.
func measure(c *cluster, seed int64, length time.Duration) (*window, map[model.TxID]bool, error) {
	w := c.spec.w
	cs := newClients(w, seed, c)
	runClients(cs, time.Now().Add(warmup))

	m := &window{w: w, probes: c.probes}
	appendedBefore := walAppended(c)
	netBefore := c.tcp.NetStats()
	runtime.GC()
	rt := readRuntime()
	for _, s := range c.sites {
		s.ResetStats()
	}
	if c.probes != nil {
		c.probes.wire.reset()
		c.probes.appends.reset()
		c.probes.saves.reset()
	}
	cpu := cpuTime()
	start := time.Now()

	phases := runClients(cs, start.Add(length))

	m.elapsed = time.Since(start)
	m.cpu = cpuTime() - cpu
	for _, s := range c.sites {
		m.sites = append(m.sites, s.Stats())
	}
	m.total = monitor.Report{Sites: m.sites}.Totals()
	m.net = netDelta(c.tcp.NetStats(), netBefore)
	m.walAppended = walAppended(c) - appendedBefore
	for _, l := range c.logs {
		m.walRetained += l.SizeBytes()
	}
	runtime.GC()
	rtEnd := readRuntime()
	m.retained = int64(rtEnd.live) - int64(rt.live)
	m.alloc = rtEnd.alloc - rt.alloc
	m.gcs = rtEnd.gcs - rt.gcs - 1 // not the forced collection
	for _, ph := range phases {
		m.p.merge(ph)
	}
	if m.committed() == 0 {
		return nil, nil, errors.New("no transaction committed in the window")
	}

	committed := make(map[model.TxID]bool)
	deltas := make(map[model.ItemID]int64)
	for _, cl := range cs {
		for _, tx := range cl.committed {
			committed[tx] = true
		}
		for item, d := range cl.deltas {
			deltas[item] += d
		}
	}
	return m, committed, checkLive(c, deltas)
}

func (p *phase) merge(q phase) {
	p.ops += q.ops
	p.failed += q.failed
	p.attempts += q.attempts
	p.restarts += q.restarts
	p.ccAborts += q.ccAborts
	p.done = append(p.done, q.done...)
}

var errNoCheckpoint = errors.New("no checkpoint in the window")

// checkLive checks the outputs that need the cluster running: commutative
// adds, which the serializability checker skips, must be conserved, and a
// checkpointing workload must have checkpointed at every site in the window.
func checkLive(c *cluster, deltas map[model.ItemID]int64) error {
	if len(deltas) > 0 {
		if err := checkConservation(c, deltas); err != nil {
			return err
		}
	}
	if c.spec.w.checkpoint {
		for i, s := range c.sites {
			if s.Stats().Checkpoints == 0 {
				return fmt.Errorf("site %s: %w", c.ids[i], errNoCheckpoint)
			}
		}
	}
	return nil
}

// checkConservation reads every item back through a QC read quorum and
// compares it with its initial value plus its committed deltas.
func checkConservation(c *cluster, deltas map[model.ItemID]int64) error {
	ops := make([]model.Op, len(c.items))
	for i, item := range c.items {
		ops[i] = model.Read(item)
	}
	var out model.Outcome
	for attempt := 0; attempt < 5 && !out.Committed; attempt++ {
		out = c.sites[0].Execute(context.Background(), ops)
	}
	if !out.Committed {
		return fmt.Errorf("conservation: read-back aborted (%v)", out.Cause)
	}
	for _, item := range c.items {
		if got, want := out.Reads[item], initialValue+deltas[item]; got != want {
			return fmt.Errorf("conservation: item %s reads %d, want initial %d + committed deltas %d",
				item, got, initialValue, deltas[item])
		}
	}
	return nil
}

func walAppended(c *cluster) uint64 {
	var n uint64
	for _, l := range c.logs {
		n += l.AppendedBytes()
	}
	return n
}

func netDelta(a, b tcpnet.Stats) tcpnet.Stats {
	return tcpnet.Stats{
		SentEnvelopes:    a.SentEnvelopes - b.SentEnvelopes,
		SentFlushes:      a.SentFlushes - b.SentFlushes,
		SentBytes:        a.SentBytes - b.SentBytes,
		SentBinaryBodies: a.SentBinaryBodies - b.SentBinaryBodies,
		SentGobBodies:    a.SentGobBodies - b.SentGobBodies,
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeStats struct{ live, alloc, gcs uint64 }

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeStats{live: s[0].Value.Uint64(), alloc: s[1].Value.Uint64(), gcs: s[2].Value.Uint64()}
}

// percentileMS is the nearest-rank q-quantile of the samples, in ms.
func percentileMS(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	i := max(0, int(math.Ceil(q*float64(len(s))))-1)
	return float64(s[i]) / float64(time.Millisecond)
}
