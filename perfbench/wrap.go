package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/tcpnet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced run times three layers from outside, at the seams site.Config
// lets a caller inject: the WAL, the transport and the snapshot store. The
// site probes each injected dependency for optional interfaces, so every
// wrapper forwards all of them; one that hid an interface would silently
// switch a layer off (no checkpoints without wal.Compactable, no batched
// delivery without wire.BatchNetwork).

// timer is a concurrency-safe latency histogram.
type timer struct {
	mu sync.Mutex
	h  monitor.Histogram
}

func (t *timer) observe(d time.Duration) {
	t.mu.Lock()
	t.h.Observe(int64(d))
	t.mu.Unlock()
}

func (t *timer) snapshot() monitor.Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.h
}

func (t *timer) reset() {
	t.mu.Lock()
	t.h = monitor.Histogram{}
	t.mu.Unlock()
}

// siteLog is what a site probes its WAL for; both wal backends implement
// all of it.
type siteLog interface {
	wal.Compactable
	wal.BatchStats
	wal.Observable
}

// timedLog times caller-visible durable appends (Append and AppendBatch,
// which return once the records are forced).
type timedLog struct {
	siteLog
	appends *timer
	// delay is added inside the timed region. Only the attribution test
	// sets it, to prove the ledger names the layer that moved.
	delay time.Duration
}

func (l *timedLog) Append(r wal.Record) error {
	start := time.Now()
	l.sleep()
	err := l.siteLog.Append(r)
	l.appends.observe(time.Since(start))
	return err
}

func (l *timedLog) AppendBatch(recs []wal.Record) error {
	start := time.Now()
	l.sleep()
	err := l.siteLog.AppendBatch(recs)
	l.appends.observe(time.Since(start))
	return err
}

func (l *timedLog) sleep() {
	if l.delay > 0 {
		time.Sleep(l.delay)
	}
}

// timedStore times checkpoint snapshot saves.
type timedStore struct {
	checkpoint.Store
	saves *timer
}

func (s *timedStore) Save(snap *checkpoint.Snapshot) error {
	start := time.Now()
	err := s.Store.Save(snap)
	s.saves.observe(time.Since(start))
	return err
}

// wireProbe holds the transport wrapper's counters, shared by every
// endpoint attached through it.
type wireProbe struct {
	sendNS, sends atomic.Uint64 // Endpoint.Send calls and their time
	recvNS, recvs atomic.Uint64 // inbound envelopes and handler time
	// sent counts envelopes handed to Send by message kind, requests and
	// replies together.
	sent [maxKind]atomic.Uint64
}

// maxKind bounds the wire.MsgKind values counted per kind; larger kinds
// are counted under kind 0.
const maxKind = 64

func (p *wireProbe) reset() {
	p.sendNS.Store(0)
	p.sends.Store(0)
	p.recvNS.Store(0)
	p.recvs.Store(0)
	for i := range p.sent {
		p.sent[i].Store(0)
	}
}

// timedNet is the tcpnet transport with timed endpoints. Embedding keeps
// RegisterTracer and NetStats, which the site probes for.
type timedNet struct {
	*tcpnet.Net
	probe *wireProbe
}

func (n *timedNet) Attach(id model.SiteID, h wire.Handler) (wire.Endpoint, error) {
	ep, err := n.Net.Attach(id, n.timeHandler(h))
	if err != nil {
		return nil, err
	}
	return &timedEndpoint{Endpoint: ep, probe: n.probe}, nil
}

func (n *timedNet) AttachBatch(id model.SiteID, h wire.Handler, bh wire.BatchHandler) (wire.Endpoint, error) {
	ep, err := n.Net.AttachBatch(id, n.timeHandler(h), n.timeBatchHandler(bh))
	if err != nil {
		return nil, err
	}
	return &timedEndpoint{Endpoint: ep, probe: n.probe}, nil
}

func (n *timedNet) timeHandler(h wire.Handler) wire.Handler {
	return func(env *wire.Envelope) {
		start := time.Now()
		h(env)
		n.probe.recvNS.Add(uint64(time.Since(start)))
		n.probe.recvs.Add(1)
	}
}

func (n *timedNet) timeBatchHandler(bh wire.BatchHandler) wire.BatchHandler {
	return func(envs []*wire.Envelope) {
		start := time.Now()
		bh(envs)
		n.probe.recvNS.Add(uint64(time.Since(start)))
		n.probe.recvs.Add(uint64(len(envs)))
	}
}

type timedEndpoint struct {
	wire.Endpoint
	probe *wireProbe
}

func (e *timedEndpoint) Send(ctx context.Context, env *wire.Envelope) error {
	kind := int(env.Kind)
	if kind >= maxKind {
		kind = 0
	}
	start := time.Now()
	err := e.Endpoint.Send(ctx, env)
	e.probe.sendNS.Add(uint64(time.Since(start)))
	e.probe.sends.Add(1)
	e.probe.sent[kind].Add(1)
	return err
}
