// Package tcpnet implements wire.Network over real TCP connections. It
// supports the paper's multi-host deployment mode: each Rainbow site, the
// name server, and the home-host tooling run as separate processes and
// exchange the same envelopes as on the simulated network.
//
// The send path is flush-coalescing: Send enqueues onto a bounded
// per-connection queue drained by one writer goroutine, which encodes every
// queued envelope into a single buffered write — one syscall carries many
// envelopes, which is what keeps chatty 2PC/3PC rounds and coalesced
// pipeline replies off the per-message write(2) cost. On the wire the
// batch travels as one length-prefixed multi-envelope frame (see frame.go);
// the receive side reads a whole frame in one ReadFull and dispatches the
// decoded envelopes as a slice. Every connection direction opens with the
// frame magic; a connection whose first bytes are anything else is closed
// unread. Message bodies are encoded at flush time with the compact binary
// codec (wire.Body, see wire/codec.go).
//
// Backpressure is by bounded queue: a Send finding the queue full blocks
// briefly (a stall) and then sheds with an error rather than buffering
// unboundedly behind a slow reader — the wire.Endpoint contract is
// explicitly unreliable, and protocol layers already retry on loss.
//
// Addressing uses a shared address book (SiteID → host:port). Attaching a
// node starts a listener on its book address; ":0" addresses are resolved
// on listen and recorded back into the book, which is how single-machine
// tests obtain dynamic ports. In a real deployment the book comes from the
// name-server configuration (the paper's "id and end point specifications").
package tcpnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Options tunes the transport's batching behavior. The zero value selects
// the defaults.
type Options struct {
	// SendQueue bounds each connection's send queue; <= 0 selects 1024.
	SendQueue int
	// MaxBatch caps the envelopes encoded into one flush; <= 0 selects 128.
	MaxBatch int
	// FlushDelay, when positive, lets the writer wait up to this long for
	// more envelopes before flushing a non-full batch — trading latency for
	// larger batches. Zero flushes as soon as the queue is drained.
	FlushDelay time.Duration
	// SendStall bounds how long a Send blocks on a full queue before
	// shedding the envelope; <= 0 selects 1s.
	SendStall time.Duration
}

func (o Options) withDefaults() Options {
	if o.SendQueue <= 0 {
		o.SendQueue = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 128
	}
	if o.SendStall <= 0 {
		o.SendStall = time.Second
	}
	return o
}

// Stats counts transport events; the flushes-vs-envelopes ratio is the
// syscalls-per-operation measurement the batching exists to improve.
type Stats struct {
	SentEnvelopes    uint64 // envelopes handed to the writer goroutines
	SentFlushes      uint64 // buffered-write flushes (≈ write syscalls)
	SentBatches      uint64 // batches encoded (== flushes unless a batch exceeded the buffer)
	SentBytes        uint64 // bytes written to sockets (bytes/flush = SentBytes/SentFlushes)
	MaxSendBatch     uint64 // largest single batch
	SendSheds        uint64 // envelopes shed on a full queue after SendStall
	SendStalls       uint64 // Sends that found their queue full and blocked
	SentBinaryBodies uint64 // bodies sent; every body is binary-encoded
	// SentGobBodies is always 0: no body is gob-encoded on the wire. The
	// field stays because the benchmark's tcpnet.gob_bodies ledger row
	// reads it.
	SentGobBodies uint64
	RecvEnvelopes uint64 // envelopes decoded inbound
	RecvFrames    uint64 // multi-envelope frames decoded inbound
}

// Net is a TCP-backed wire.Network.
type Net struct {
	opts Options

	mu      sync.Mutex
	book    map[model.SiteID]string
	nodes   map[model.SiteID]*endpoint
	tracers map[model.SiteID]*trace.Tracer

	sentEnvelopes    atomic.Uint64
	sentFlushes      atomic.Uint64
	sentBatches      atomic.Uint64
	sentBytes        atomic.Uint64
	maxSendBatch     atomic.Uint64
	sendSheds        atomic.Uint64
	sendStalls       atomic.Uint64
	sentBinaryBodies atomic.Uint64
	recvEnvelopes    atomic.Uint64
	recvFrames       atomic.Uint64
}

// New builds a TCP network with the given address book and default options.
// The book may be extended later via SetAddr (e.g. after registering with
// the name server).
func New(book map[model.SiteID]string) *Net {
	return NewWithOptions(book, Options{})
}

// NewWithOptions builds a TCP network with explicit batching options.
func NewWithOptions(book map[model.SiteID]string, opts Options) *Net {
	b := make(map[model.SiteID]string, len(book))
	for k, v := range book {
		b[k] = v
	}
	return &Net{
		opts:    opts.withDefaults(),
		book:    b,
		nodes:   make(map[model.SiteID]*endpoint),
		tracers: make(map[model.SiteID]*trace.Tracer),
	}
}

// RegisterTracer attaches a site's tracer to its endpoint: the transport
// then feeds flush-cycle latencies into the always-on net_flush histogram
// and attaches send-queue spans to in-flight sampled traces. Sites probe
// for this method through the wire.Network interface; transports without it
// (the simulator) simply skip transport stages.
func (n *Net) RegisterTracer(id model.SiteID, t *trace.Tracer) {
	n.mu.Lock()
	n.tracers[id] = t
	ep := n.nodes[id]
	n.mu.Unlock()
	if ep != nil {
		ep.tracer.Store(t)
	}
}

// SetAddr records or updates a node's address.
func (n *Net) SetAddr(id model.SiteID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.book[id] = addr
}

// Addr returns the (possibly listen-resolved) address of a node.
func (n *Net) Addr(id model.SiteID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.book[id]
	return a, ok
}

// NetStats snapshots the transport counters.
func (n *Net) NetStats() Stats {
	return Stats{
		SentEnvelopes:    n.sentEnvelopes.Load(),
		SentFlushes:      n.sentFlushes.Load(),
		SentBatches:      n.sentBatches.Load(),
		SentBytes:        n.sentBytes.Load(),
		MaxSendBatch:     n.maxSendBatch.Load(),
		SendSheds:        n.sendSheds.Load(),
		SendStalls:       n.sendStalls.Load(),
		SentBinaryBodies: n.sentBinaryBodies.Load(),
		RecvEnvelopes:    n.recvEnvelopes.Load(),
		RecvFrames:       n.recvFrames.Load(),
	}
}

// Attach implements wire.Network: it starts a listener on the node's book
// address and serves inbound envelope streams.
func (n *Net) Attach(id model.SiteID, h wire.Handler) (wire.Endpoint, error) {
	return n.AttachBatch(id, h, nil)
}

// AttachBatch implements wire.BatchNetwork: bh, when non-nil, receives each
// decoded multi-envelope frame as one slice (single-envelope frames still
// dispatch through h).
func (n *Net) AttachBatch(id model.SiteID, h wire.Handler, bh wire.BatchHandler) (wire.Endpoint, error) {
	if h == nil {
		return nil, errors.New("tcpnet: nil handler")
	}
	n.mu.Lock()
	addr, ok := n.book[id]
	if !ok {
		addr = "127.0.0.1:0"
	}
	if _, dup := n.nodes[id]; dup {
		n.mu.Unlock()
		return nil, fmt.Errorf("tcpnet: %s already attached", id)
	}
	n.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s for %s: %w", addr, id, err)
	}
	ep := &endpoint{
		id:      id,
		net:     n,
		ln:      ln,
		handler: h,
		batch:   bh,
		conns:   make(map[model.SiteID]*outConn),
		live:    make(map[*outConn]struct{}),
	}
	n.mu.Lock()
	n.book[id] = ln.Addr().String()
	n.nodes[id] = ep
	if t := n.tracers[id]; t != nil {
		ep.tracer.Store(t)
	}
	n.mu.Unlock()

	go ep.acceptLoop()
	return ep, nil
}

type endpoint struct {
	id      model.SiteID
	net     *Net
	ln      net.Listener
	handler wire.Handler
	batch   wire.BatchHandler
	// tracer, when registered, receives flush-cycle observations and
	// send-queue spans for sampled envelopes leaving this endpoint.
	tracer atomic.Pointer[trace.Tracer]

	mu    sync.Mutex
	conns map[model.SiteID]*outConn
	// live holds every outConn not yet killed, routed or not — accepted
	// connections join it straight from Accept, before their peer has sent
	// a byte. Route learning ("newest wins") can drop an older connection
	// from conns; Close kills from live, so such an orphan (or a silent
	// inbound socket) still dies with the endpoint.
	live   map[*outConn]struct{}
	closed bool
}

// outConn is one connection's send half: a bounded queue drained by a
// writer goroutine that encodes every drained envelope into one buffered
// write. dialedTo is set on dialed connections (the writer redials once on
// a write failure, mirroring the old send-retry semantics); accepted
// connections cannot be redialed and die on error.
type outConn struct {
	ep       *endpoint
	conn     net.Conn
	dialedTo model.SiteID

	sendCh   chan sendItem
	done     chan struct{}
	killOnce sync.Once
	dead     atomic.Bool
}

// sendItem is one queued envelope; enq carries the enqueue instant (unix
// nanos) for sampled envelopes so the writer can close their send-queue
// span after the flush. Zero — the untraced case — costs nothing.
type sendItem struct {
	env *wire.Envelope
	enq int64
}

func (e *endpoint) newOutConn(conn net.Conn, dialedTo model.SiteID) *outConn {
	c := &outConn{
		ep:       e,
		conn:     conn,
		dialedTo: dialedTo,
		sendCh:   make(chan sendItem, e.net.opts.SendQueue),
		done:     make(chan struct{}),
	}
	e.mu.Lock()
	closed := e.closed
	if !closed {
		e.live[c] = struct{}{}
	}
	e.mu.Unlock()
	go c.writeLoop()
	if closed {
		c.kill()
	}
	return c
}

func (e *endpoint) ID() model.SiteID { return e.id }

func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	live := make([]*outConn, 0, len(e.live))
	for c := range e.live {
		live = append(live, c)
	}
	e.conns = make(map[model.SiteID]*outConn)
	e.mu.Unlock()

	for _, c := range live {
		c.kill()
	}
	e.net.mu.Lock()
	delete(e.net.nodes, e.id)
	e.net.mu.Unlock()
	return e.ln.Close()
}

// kill marks the connection dead, drops it from the endpoint's live set and
// closes the socket; the writer and read loops exit on their next
// operation. The caller must not hold c.ep.mu.
func (c *outConn) kill() {
	c.killOnce.Do(func() {
		c.dead.Store(true)
		close(c.done)
		c.ep.mu.Lock()
		delete(c.ep.live, c)
		conn := c.conn
		c.ep.mu.Unlock()
		conn.Close()
	})
}

// Send implements wire.Endpoint: it lazily dials env.To and enqueues the
// envelope on the connection's send queue (the writer goroutine delivers
// it, coalesced with its queue neighbors, in one flush). A connection found
// dead is dropped and redialed once.
func (e *endpoint) Send(ctx context.Context, env *wire.Envelope) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("tcpnet: %s detached", e.id)
	}
	c, err := e.conn(ctx, env.To)
	if err != nil {
		return err
	}
	if err := c.enqueue(ctx, env); err != nil {
		if !c.dead.Load() {
			return err // backpressure shed on a live connection
		}
		e.dropConn(env.To, c)
		c, err = e.conn(ctx, env.To)
		if err != nil {
			return err
		}
		if err := c.enqueue(ctx, env); err != nil {
			e.dropConn(env.To, c)
			return fmt.Errorf("tcpnet: send %s→%s: %w", e.id, env.To, err)
		}
	}
	return nil
}

var errConnDead = errors.New("tcpnet: connection dead")

// enqueue puts env on the send queue: non-blocking first, then a bounded
// stall, then shed. The bounded queue plus bounded stall is what makes a
// slow reader shed load instead of deadlocking or buffering unboundedly.
func (c *outConn) enqueue(ctx context.Context, env *wire.Envelope) error {
	if c.dead.Load() {
		return errConnDead
	}
	item := sendItem{env: env}
	if env.Trace != 0 && c.ep.tracer.Load() != nil {
		item.enq = time.Now().UnixNano()
	}
	select {
	case c.sendCh <- item:
		c.ep.net.sentEnvelopes.Add(1)
		return nil
	default:
	}
	c.ep.net.sendStalls.Add(1)
	stall := time.NewTimer(c.ep.net.opts.SendStall)
	defer stall.Stop()
	select {
	case c.sendCh <- item:
		c.ep.net.sentEnvelopes.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-stall.C:
		c.ep.net.sendSheds.Add(1)
		return fmt.Errorf("tcpnet: send queue to %s full, envelope shed", env.To)
	}
}

// writeLoop is the connection's writer goroutine: block for the first
// queued envelope, drain greedily up to the batch cap (optionally waiting
// FlushDelay for stragglers), encode the whole batch, flush once.
func (c *outConn) writeLoop() {
	opts := c.ep.net.opts
	var (
		flushes countingWriter
		bw      *bufio.Writer
		scratch []byte // frame-encode scratch, reused across flushes
		bodyTmp []byte // body-encode scratch, reused across envelopes
	)
	rebind := func() {
		flushes = countingWriter{w: c.conn}
		bw = bufio.NewWriterSize(&flushes, 64<<10)
	}
	rebind()
	if _, err := c.conn.Write(frameMagic[:]); err != nil {
		c.kill()
		return
	}
	items := make([]sendItem, 0, opts.MaxBatch)
	batch := make([]*wire.Envelope, 0, opts.MaxBatch)
	for {
		var item sendItem
		select {
		case item = <-c.sendCh:
		case <-c.done:
			return
		}
		items = append(items[:0], item)
	drain:
		for len(items) < opts.MaxBatch {
			select {
			case next := <-c.sendCh:
				items = append(items, next)
			default:
				if opts.FlushDelay <= 0 || len(items) >= opts.MaxBatch {
					break drain
				}
				t := time.NewTimer(opts.FlushDelay)
				select {
				case next := <-c.sendCh:
					t.Stop()
					items = append(items, next)
				case <-t.C:
					break drain
				}
			}
		}
		batch = batch[:0]
		for _, it := range items {
			batch = append(batch, it.env)
		}
		tracer := c.ep.tracer.Load()
		var flushStart time.Time
		if tracer != nil {
			flushStart = time.Now()
		}
		if err := c.writeBatch(bw, &scratch, &bodyTmp, batch); err != nil {
			if !c.redial() {
				c.kill()
				return
			}
			rebind()
			if c.writeBatch(bw, &scratch, &bodyTmp, batch) != nil {
				c.kill()
				return
			}
		}
		n := c.ep.net
		n.sentBatches.Add(1)
		n.sentBinaryBodies.Add(uint64(len(items)))
		n.sentFlushes.Add(flushes.take())
		n.sentBytes.Add(flushes.takeBytes())
		if l := uint64(len(items)); l > n.maxSendBatch.Load() {
			n.maxSendBatch.Store(l)
		}
		if tracer != nil {
			c.observeFlush(tracer, flushStart, items)
		}
	}
}

// observeFlush records one flush cycle: the always-on net_flush histogram,
// and a net_queue span (enqueue → flushed) attached to each sampled
// envelope's in-flight trace.
func (c *outConn) observeFlush(tracer *trace.Tracer, flushStart time.Time, items []sendItem) {
	end := time.Now()
	tracer.Observe(trace.StageNetFlush, end.Sub(flushStart))
	for _, it := range items {
		if it.enq == 0 {
			continue
		}
		start := time.Unix(0, it.enq)
		tracer.Lookup(trace.ID(it.env.Trace)).
			Record(trace.StageNetQueue, start, end.Sub(start), string(it.env.To)+" "+it.env.Kind.String())
	}
}

// writeBatch frames one drained batch and flushes it.
func (c *outConn) writeBatch(bw *bufio.Writer, scratch, bodyTmp *[]byte, batch []*wire.Envelope) error {
	*scratch = appendFrame((*scratch)[:0], batch, bodyTmp)
	if _, err := bw.Write(*scratch); err != nil {
		return err
	}
	return bw.Flush()
}

// redial replaces a failed dialed connection in place: the old socket is
// closed, a fresh one dialed, its read loop started, and the registered
// route updated if it still points here. Accepted connections (no dial
// address) and detached endpoints return false.
func (c *outConn) redial() bool {
	if c.dialedTo == "" || c.dead.Load() {
		return false
	}
	addr, ok := c.ep.net.Addr(c.dialedTo)
	if !ok {
		return false
	}
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	c.ep.mu.Lock()
	if c.ep.closed || c.dead.Load() || c.ep.conns[c.dialedTo] != c {
		c.ep.mu.Unlock()
		conn.Close()
		return false
	}
	old := c.conn
	c.conn = conn
	c.ep.mu.Unlock()
	old.Close()
	if _, err := conn.Write(frameMagic[:]); err != nil {
		return false
	}
	go c.ep.readConn(c, c.dialedTo)
	return true
}

// countingWriter counts the writes that reach the socket (≈ syscalls) and
// the bytes they carry (bytes/flush is a NetStats-derived metric).
type countingWriter struct {
	w      io.Writer
	writes uint64
	bytes  uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	n, err := c.w.Write(p)
	c.bytes += uint64(n)
	return n, err
}

func (c *countingWriter) take() uint64 {
	n := c.writes
	c.writes = 0
	return n
}

func (c *countingWriter) takeBytes() uint64 {
	n := c.bytes
	c.bytes = 0
	return n
}

// conn returns the cached connection to `to`, dialing one if needed.
func (e *endpoint) conn(ctx context.Context, to model.SiteID) (*outConn, error) {
	e.mu.Lock()
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	addr, ok := e.net.Addr(to)
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address for %s", to)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %s (%s): %w", to, addr, err)
	}
	c := e.newOutConn(conn, to)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.kill()
		return nil, fmt.Errorf("tcpnet: %s detached", e.id)
	}
	if existing, ok := e.conns[to]; ok {
		e.mu.Unlock()
		c.kill()
		return existing, nil
	}
	e.conns[to] = c
	e.mu.Unlock()
	// Dialed connections are bidirectional: replies (and any traffic the
	// peer routes back on this socket) must be read too.
	go e.readConn(c, to)
	return c, nil
}

func (e *endpoint) dropConn(to model.SiteID, c *outConn) {
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	c.kill()
}

func (e *endpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// The outConn joins the endpoint's live set before the peer has
		// sent anything, so Close also reaps a peer that connects and
		// stays silent.
		go e.readConn(e.newOutConn(conn, ""), "")
	}
}

// readMagic consumes the first eight bytes of a connection and reports
// whether they are the frame magic every connection direction opens with.
func readMagic(br *bufio.Reader) bool {
	var head [len(frameMagic)]byte
	_, err := io.ReadFull(br, head[:])
	return err == nil && head == frameMagic
}

// readConn decodes one connection's inbound stream. Every connection is
// bidirectional: it is registered as the outbound route to whatever peer
// sends on it ("newest route wins"), so replies travel back on the
// connection the request arrived on — which keeps working across peer
// restarts where a previously cached dialed connection would be silently
// stale. from names the peer the connection was dialed to (empty for
// accepted connections; learned from traffic). A stream that does not open
// with the frame magic is dropped before any of it is decoded.
func (e *endpoint) readConn(oc *outConn, from model.SiteID) {
	e.mu.Lock()
	conn := oc.conn
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		// A redial swapped in a fresh socket: this loop's exit concerns the
		// old one only, and the outConn (with its writer) lives on.
		stale := oc.conn != conn
		if from != "" && e.conns[from] == oc && !stale {
			delete(e.conns, from)
		}
		e.mu.Unlock()
		conn.Close()
		if !stale {
			// The write half has no reason to outlive the read half: without
			// this an accepted connection's idle writer (blocked on its send
			// queue, never registered in conns) leaks past endpoint Close.
			oc.kill()
		}
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	if !readMagic(br) {
		return
	}
	var frameBuf []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
		if n < 4 || n > maxFrameBytes {
			return // torn or garbage frame length: drop the connection
		}
		if uint32(cap(frameBuf)) < n {
			frameBuf = make([]byte, n)
		}
		frameBuf = frameBuf[:n]
		if _, err := io.ReadFull(br, frameBuf); err != nil {
			return // torn frame: the sender re-sends on a fresh connection
		}
		envs, err := decodeFrame(frameBuf)
		if err != nil {
			return
		}
		e.net.recvFrames.Add(1)
		e.net.recvEnvelopes.Add(uint64(len(envs)))
		if f := envs[0].From; f != "" && f != from {
			e.mu.Lock()
			e.conns[f] = oc
			e.mu.Unlock()
			from = f
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return
		}
		if e.batch != nil && len(envs) > 1 {
			e.batch(envs)
			continue
		}
		for _, env := range envs {
			e.handler(env)
		}
	}
}
