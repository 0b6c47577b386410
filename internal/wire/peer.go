package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
)

// ErrClosed is returned by Peer operations after Close.
var ErrClosed = errors.New("wire: peer closed")

// ServeFunc handles one inbound request and returns the response kind and
// typed body. Returning an error sends a KindError reply carrying the
// error's abort cause (if any) to the caller. req is the encoded request
// payload; handlers decode it into the typed body for the kind
// (req.Decode). tid is the request envelope's
// trace ID (zero for the untraced common case); handlers doing traced work
// join the distributed trace under it. ServeFunc runs on transport
// goroutines and must be safe for concurrent use.
type ServeFunc func(from model.SiteID, tid trace.ID, kind MsgKind, req Payload) (MsgKind, Body, error)

// ReplyFunc sends the response for one asynchronously served request. It
// may be called from any goroutine, exactly once; err takes precedence over
// (kind, body) and is converted to a KindError reply exactly like a
// ServeFunc error.
type ReplyFunc func(kind MsgKind, body Body, err error)

// AsyncServeFunc is the pipelined alternative to ServeFunc: instead of
// computing the reply on the transport goroutine, the handler may take
// ownership of the request (returning true) and deliver the response later
// through reply — e.g. after the request has passed through a per-shard
// command pipeline. Returning false declines the request, which then falls
// through to the synchronous ServeFunc; an AsyncServeFunc that returned
// true must eventually call reply exactly once or the caller times out.
type AsyncServeFunc func(from model.SiteID, tid trace.ID, kind MsgKind, req Payload, reply ReplyFunc) bool

// Peer layers request/response RPC over a Network endpoint. Each Rainbow
// node (name server, site, workload driver, monitor) owns one Peer.
//
// Outbound: Start sends a request now and hands its correlated reply to a
// callback later, so one caller can have a whole round of requests in
// flight and wait for their replies on one channel under one deadline —
// no goroutine and no timer per request. Call is Start plus a blocking
// wait; Cast sends one-way. Inbound: requests are dispatched to the
// ServeFunc and the returned body is sent back as a reply.
type Peer struct {
	ep    Endpoint
	serve ServeFunc
	// async, when set, gets first claim on inbound requests (see
	// AsyncServeFunc). Atomic because SetAsyncServe may race early inbound
	// traffic on an already-attached endpoint.
	async atomic.Pointer[AsyncServeFunc]

	corr atomic.Uint64
	mu   sync.Mutex
	// pending maps each started call's correlation ID to its reply
	// callback; whoever deletes an entry (reply dispatch, Forget, Close)
	// owns the single callback run.
	pending map[uint64]func(*Envelope)
	closed  bool
}

// NewPeer attaches id to the network with the given request handler.
// serve may be nil for pure-client peers (inbound requests then get a
// generic error reply). On transports that deliver decoded frames in
// slices the peer attaches its batch handler too, so reply correlation for
// a whole frame costs one pending-map critical section.
func NewPeer(net Network, id model.SiteID, serve ServeFunc) (*Peer, error) {
	p := &Peer{serve: serve, pending: make(map[uint64]func(*Envelope))}
	var (
		ep  Endpoint
		err error
	)
	if bn, ok := net.(BatchNetwork); ok {
		ep, err = bn.AttachBatch(id, p.handle, p.handleBatch)
	} else {
		ep, err = net.Attach(id, p.handle)
	}
	if err != nil {
		return nil, err
	}
	p.ep = ep
	return p, nil
}

// ID returns the peer's network address.
func (p *Peer) ID() model.SiteID { return p.ep.ID() }

// Close detaches the peer and fails all pending calls: each pending
// callback runs once with a nil envelope.
func (p *Peer) Close() error {
	p.mu.Lock()
	p.closed = true
	failed := make([]func(*Envelope), 0, len(p.pending))
	for corr, onReply := range p.pending {
		failed = append(failed, onReply)
		delete(p.pending, corr)
	}
	p.mu.Unlock()
	for _, onReply := range failed {
		onReply(nil)
	}
	return p.ep.Close()
}

// Start sends a request to `to` now and returns its correlation ID without
// waiting for the reply. When the reply arrives, onReply runs once with it,
// on the transport goroutine that received it — so onReply must not block
// (a send into a channel with a slot reserved for this reply is the
// intended use). If the peer closes first, onReply runs with nil. It never
// runs if Start returns an error (nothing was sent) or after Forget. The
// request body travels typed: the transport encodes it at flush time.
func (p *Peer) Start(ctx context.Context, to model.SiteID, kind MsgKind, body Body, onReply func(*Envelope)) (uint64, error) {
	corr := p.corr.Add(1)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, ErrClosed
	}
	p.pending[corr] = onReply
	p.mu.Unlock()

	env := &Envelope{From: p.ep.ID(), To: to, Kind: kind, Corr: corr, Body: body, Trace: uint64(trace.IDFromContext(ctx))}
	if err := p.ep.Send(ctx, env); err != nil {
		p.Forget(corr)
		return 0, err
	}
	return corr, nil
}

// Forget abandons a started call whose reply is no longer wanted: its
// pending entry goes now, and a reply arriving later is dropped.
func (p *Peer) Forget(corr uint64) {
	p.mu.Lock()
	delete(p.pending, corr)
	p.mu.Unlock()
}

// Collect receives the replies of one round of started calls from
// replies, handing each to take, until n have arrived, take returns false,
// timeout passes or ctx ends. A reply already delivered is taken even
// after the deadline, so a slow leg the caller ran inline costs the round
// no remote answer. One timer covers the whole round.
func Collect[R any](ctx context.Context, replies <-chan R, n int, timeout time.Duration, take func(R) bool) {
	if n <= 0 {
		return
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for ; n > 0; n-- {
		var r R
		select {
		case r = <-replies:
		default:
			select {
			case r = <-replies:
			case <-timer.C:
				return
			case <-ctx.Done():
				return
			}
		}
		if !take(r) {
			return
		}
	}
}

// DecodeReply decodes a reply envelope into respBody (skipped when nil),
// converting a KindError reply back into the error it carries (preserving
// abort causes).
func DecodeReply(reply *Envelope, respBody Body) error {
	if reply.Kind == KindError {
		var eb ErrorBody
		if err := (Payload{Bytes: reply.Payload}).Decode(&eb); err != nil {
			return err
		}
		return eb.Err()
	}
	if respBody != nil {
		return (Payload{Bytes: reply.Payload}).Decode(respBody)
	}
	return nil
}

// Call sends a request to `to` and blocks until the reply arrives, ctx is
// done, or the peer closes. The reply payload is decoded into respBody when
// respBody is non-nil (see DecodeReply). See the generic Call helper for
// the declare-free typed form.
func (p *Peer) Call(ctx context.Context, to model.SiteID, kind MsgKind, body, respBody Body) error {
	ch := make(chan *Envelope, 1)
	corr, err := p.Start(ctx, to, kind, body, func(env *Envelope) { ch <- env })
	if err != nil {
		return err
	}
	select {
	case <-ctx.Done():
		p.Forget(corr)
		return ctx.Err()
	case reply := <-ch:
		if reply == nil {
			return ErrClosed
		}
		return DecodeReply(reply, respBody)
	}
}

// Call sends req and decodes the typed response, constructing it for the
// caller — the generic replacement for declare-a-zero-value-and-pass
// boilerplate around Peer.Call. Resp is the response body type (named
// explicitly at the call site; the pointer-receiver Body implementation is
// inferred). kind stays explicit because several kinds share body types.
func Call[Resp any, P interface {
	*Resp
	Body
}](ctx context.Context, p *Peer, to model.SiteID, kind MsgKind, req Body) (*Resp, error) {
	resp := new(Resp)
	if err := p.Call(ctx, to, kind, req, P(resp)); err != nil {
		return nil, err
	}
	return resp, nil
}

// Cast sends a one-way message with no reply expected.
func (p *Peer) Cast(ctx context.Context, to model.SiteID, kind MsgKind, body Body) error {
	return p.ep.Send(ctx, &Envelope{From: p.ep.ID(), To: to, Kind: kind, Body: body, Trace: uint64(trace.IDFromContext(ctx))})
}

// SetAsyncServe installs the pipelined inbound handler (see
// AsyncServeFunc). Passing nil reverts to synchronous-only serving.
func (p *Peer) SetAsyncServe(f AsyncServeFunc) {
	if f == nil {
		p.async.Store(nil)
		return
	}
	p.async.Store(&f)
}

// handle is the transport-facing inbound handler. It may be called from a
// per-connection read loop (tcpnet), so only non-blocking work runs inline:
// reply correlation is a map send, and the async path's claim is a decode
// plus a queue submit. A synchronous serve can block arbitrarily long (CC
// admission waits up to the lock timeout, prepares force the WAL), so it
// gets its own goroutine — otherwise one blocked request head-of-line
// blocks every envelope behind it on the same connection.
func (p *Peer) handle(env *Envelope) {
	if env.Reply {
		p.mu.Lock()
		onReply, ok := p.pending[env.Corr]
		if ok {
			delete(p.pending, env.Corr)
		}
		p.mu.Unlock()
		if ok {
			onReply(env)
		}
		return // late/duplicate replies are dropped
	}

	if env.Corr == 0 {
		// One-way cast: dispatch, discard result. Casts run the same
		// ServeFunc, so they may block just like requests.
		if p.serve != nil {
			go p.serve(env.From, trace.ID(env.Trace), env.Kind, Payload{Bytes: env.Payload}) //nolint:errcheck
		}
		return
	}

	if af := p.async.Load(); af != nil {
		from, corr, tid := env.From, env.Corr, env.Trace
		if (*af)(env.From, trace.ID(env.Trace), env.Kind, Payload{Bytes: env.Payload}, func(kind MsgKind, body Body, err error) {
			p.sendReply(from, corr, tid, kind, body, err)
		}) {
			return // the pipeline owns the reply now
		}
	}

	go p.serveSync(env)
}

// serveSync runs the blocking ServeFunc for one request and sends its
// reply; always on its own goroutine (see handle).
func (p *Peer) serveSync(env *Envelope) {
	var (
		kind MsgKind
		body Body
		err  error
	)
	if p.serve == nil {
		err = fmt.Errorf("node %s does not serve requests", p.ep.ID())
	} else {
		kind, body, err = p.serve(env.From, trace.ID(env.Trace), env.Kind, Payload{Bytes: env.Payload})
	}
	p.sendReply(env.From, env.Corr, env.Trace, kind, body, err)
}

// handleBatch dispatches one decoded wire frame: all replies resolve in a
// single pending-map critical section (the frame-level batching win on the
// caller side of coalesced RPC fan-ins), their callbacks run after it, and
// then requests dispatch through the normal per-envelope path.
func (p *Peer) handleBatch(envs []*Envelope) {
	type resolved struct {
		onReply func(*Envelope)
		env     *Envelope
	}
	var (
		requests []*Envelope
		buf      [16]resolved // frames rarely carry more; no allocation then
		replies  = buf[:0]
	)
	p.mu.Lock()
	for _, env := range envs {
		if !env.Reply {
			requests = append(requests, env)
			continue
		}
		if onReply, ok := p.pending[env.Corr]; ok {
			delete(p.pending, env.Corr)
			replies = append(replies, resolved{onReply, env})
		}
	}
	p.mu.Unlock()
	for _, r := range replies {
		r.onReply(r.env)
	}
	for _, env := range requests {
		p.handle(env)
	}
}

// sendReply sends one response envelope; shared by the synchronous serve
// path and the async ReplyFunc closures. An error is converted to a
// KindError reply preserving its abort cause. The request's trace ID is
// echoed so the reply's transport hops are traceable too. The typed body
// rides the envelope; the transport encodes it at flush time.
func (p *Peer) sendReply(to model.SiteID, corr, tid uint64, kind MsgKind, body Body, err error) {
	if err != nil {
		kind = KindError
		cause := model.CauseOf(err)
		if cause == model.AbortClient {
			// Not a protocol abort; keep cause None so Err() re-creates a
			// generic error rather than a spurious client abort.
			cause = model.AbortNone
		}
		body = &ErrorBody{Cause: cause, Reason: err.Error()}
	}
	reply := &Envelope{
		From: p.ep.ID(), To: to, Kind: kind,
		Corr: corr, Reply: true, Trace: tid, Body: body,
	}
	// Replies are best-effort; the caller times out on loss.
	p.ep.Send(context.Background(), reply) //nolint:errcheck
}
