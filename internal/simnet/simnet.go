// Package simnet implements Rainbow's network simulator: an in-process
// wire.Network with configurable per-link latency and jitter, probabilistic
// message loss, network partitions, and site pause/resume (the transport
// face of crash injection).
//
// The simulator also keeps the traffic accounting the paper's progress
// monitor reports: total messages, bytes, drops, and per-link counts for
// load balance/imbalance indicators.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/wire"
)

// Config sets the default link behaviour. Per-link overrides are available
// via SetLink.
type Config struct {
	// BaseLatency is the minimum one-way delivery latency.
	BaseLatency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// DropRate is the probability in [0,1] that a message is silently lost.
	DropRate float64
	// Seed seeds the simulator's private PRNG; 0 selects a fixed default so
	// runs are reproducible unless explicitly varied.
	Seed int64
}

// Link overrides Config for one directed site pair.
type Link struct {
	BaseLatency time.Duration
	Jitter      time.Duration
	DropRate    float64
}

// Stats is a snapshot of the simulator's traffic counters.
type Stats struct {
	Sent      uint64 // messages accepted for delivery (after partition/drop filtering they may still count as Dropped)
	Delivered uint64
	Dropped   uint64 // lost to DropRate, partitions, or paused destinations
	Bytes     uint64 // bytes of delivered messages
	// PerLink counts delivered messages per directed (from,to) pair.
	PerLink map[LinkKey]uint64
}

// LinkKey is a directed site pair.
type LinkKey struct {
	From, To model.SiteID
}

// Net is the simulated network. The zero value is not usable; use New.
type Net struct {
	cfg Config

	mu        sync.Mutex
	rng       *rand.Rand
	nodes     map[model.SiteID]*node
	links     map[LinkKey]Link
	partition map[model.SiteID]int // partition group; absent = group 0

	sent, delivered, dropped, bytes uint64
	perLink                         map[LinkKey]uint64
}

type node struct {
	id      model.SiteID
	net     *Net
	handler wire.Handler
	paused  bool
	closed  bool
}

// New builds a simulated network with the given defaults.
func New(cfg Config) *Net {
	seed := cfg.Seed
	if seed == 0 {
		seed = 20000619 // VLDB 2000, page 619: fixed default for reproducibility
	}
	return &Net{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		nodes:     make(map[model.SiteID]*node),
		links:     make(map[LinkKey]Link),
		partition: make(map[model.SiteID]int),
		perLink:   make(map[LinkKey]uint64),
	}
}

// Attach implements wire.Network.
func (n *Net) Attach(id model.SiteID, h wire.Handler) (wire.Endpoint, error) {
	if h == nil {
		return nil, errors.New("simnet: nil handler")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[id]; ok && !nd.closed {
		return nil, fmt.Errorf("simnet: %s already attached", id)
	}
	nd := &node{id: id, net: n, handler: h}
	n.nodes[id] = nd
	return nd, nil
}

// SetLink overrides behaviour for the directed link from→to.
func (n *Net) SetLink(from, to model.SiteID, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[LinkKey{from, to}] = l
}

// ClearLinks removes all per-link overrides.
func (n *Net) ClearLinks() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links = make(map[LinkKey]Link)
}

// Partition splits the network into groups; messages cross groups only to
// be dropped. Sites not mentioned fall into group 0.
func (n *Net) Partition(groups ...[]model.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[model.SiteID]int)
	for g, sites := range groups {
		for _, s := range sites {
			n.partition[s] = g + 1
		}
	}
}

// Heal removes all partitions.
func (n *Net) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[model.SiteID]int)
}

// Pause makes a site unreachable and unable to send — the transport face of
// a site crash. In-flight messages to it are dropped at delivery time.
func (n *Net) Pause(id model.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[id]; ok {
		nd.paused = true
	}
}

// Resume reverses Pause.
func (n *Net) Resume(id model.SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[id]; ok {
		nd.paused = false
	}
}

// Paused reports whether the site is currently paused.
func (n *Net) Paused(id model.SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[id]
	return ok && nd.paused
}

// Stats snapshots the traffic counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	per := make(map[LinkKey]uint64, len(n.perLink))
	for k, v := range n.perLink {
		per[k] = v
	}
	return Stats{
		Sent: n.sent, Delivered: n.delivered, Dropped: n.dropped, Bytes: n.bytes,
		PerLink: per,
	}
}

// ResetStats zeroes the traffic counters.
func (n *Net) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sent, n.delivered, n.dropped, n.bytes = 0, 0, 0, 0
	n.perLink = make(map[LinkKey]uint64)
}

// ID implements wire.Endpoint.
func (nd *node) ID() model.SiteID { return nd.id }

// Close implements wire.Endpoint.
func (nd *node) Close() error {
	n := nd.net
	n.mu.Lock()
	defer n.mu.Unlock()
	nd.closed = true
	delete(n.nodes, nd.id)
	return nil
}

// Send implements wire.Endpoint. It applies partition, drop and latency
// rules, then delivers asynchronously on a timer goroutine. The typed body
// is encoded before delivery, exactly as the TCP transport encodes it, which
// preserves the package's promises: real message sizes, no pointer sharing,
// and byte traffic identical to what TCP connections carry.
func (nd *node) Send(_ context.Context, env *wire.Envelope) error {
	env.Flatten()
	n := nd.net
	n.mu.Lock()
	if nd.closed {
		n.mu.Unlock()
		return fmt.Errorf("simnet: %s detached", nd.id)
	}
	if nd.paused {
		// A crashed site produces no traffic; callers time out.
		n.mu.Unlock()
		return nil
	}
	n.sent++
	dst, ok := n.nodes[env.To]
	if !ok || dst.closed {
		n.dropped++
		n.mu.Unlock()
		return nil // unknown destination behaves like loss: sender times out
	}
	if n.partition[env.From] != n.partition[env.To] {
		n.dropped++
		n.mu.Unlock()
		return nil
	}
	link := Link{BaseLatency: n.cfg.BaseLatency, Jitter: n.cfg.Jitter, DropRate: n.cfg.DropRate}
	if l, ok := n.links[LinkKey{env.From, env.To}]; ok {
		link = l
	}
	if link.DropRate > 0 && n.rng.Float64() < link.DropRate {
		n.dropped++
		n.mu.Unlock()
		return nil
	}
	delay := link.BaseLatency
	if link.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(link.Jitter)))
	}
	n.mu.Unlock()

	deliver := func() {
		n.mu.Lock()
		d, ok := n.nodes[env.To]
		if !ok || d.closed || d.paused {
			n.dropped++
			n.mu.Unlock()
			return
		}
		n.delivered++
		n.bytes += uint64(env.Size())
		n.perLink[LinkKey{env.From, env.To}]++
		h := d.handler
		n.mu.Unlock()
		h(env)
	}
	if delay <= 0 {
		go deliver()
	} else {
		time.AfterFunc(delay, deliver)
	}
	return nil
}
