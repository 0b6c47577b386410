// Package nameserver implements the Rainbow name server: the single
// metadata authority of a Rainbow instance. It stores the registered sites
// ("id and end point specifications"), the database fragmentation /
// replication / distribution schema, and the selected transaction-processing
// protocols; any site can query it over the wire layer (paper §2: "Any site
// can query the name server to get pertinent information").
package nameserver

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/schema"
	"repro/internal/trace"
	"repro/internal/wire"
)

// CatalogResp carries the full catalog to a querying site.
type CatalogResp struct {
	Catalog schema.Catalog
}

// SetCatalogReq replaces the catalog (administrator traffic from the GUI /
// NSlet path).
type SetCatalogReq struct {
	Catalog schema.Catalog
}

// CatalogPushMsg is the server-initiated half of catalog propagation: after
// an update installs, the name server casts the stamped catalog to every
// registered site so reconfiguration starts without waiting a poll tick.
// Delivery is best-effort (a partitioned or crashed site misses it and
// catches up through its poll loop).
type CatalogPushMsg struct {
	Catalog schema.Catalog
}

// The catalog bodies are cold-path (poll ticks and administrator updates)
// and wrap the deeply nested schema.Catalog, so their wire.Body
// implementations ride the gob escape hatch instead of a hand-rolled
// encoding (see wire.AppendGob).

// Kind implements wire.Body.
func (r *CatalogResp) Kind() wire.MsgKind { return wire.KindGetCatalog }

// AppendTo implements wire.Body.
func (r *CatalogResp) AppendTo(buf []byte) []byte { return wire.AppendGob(buf, r) }

// DecodeFrom implements wire.Body.
func (r *CatalogResp) DecodeFrom(p []byte) error { return wire.DecodeGob(p, r) }

// Kind implements wire.Body.
func (r *SetCatalogReq) Kind() wire.MsgKind { return wire.KindSetCatalog }

// AppendTo implements wire.Body.
func (r *SetCatalogReq) AppendTo(buf []byte) []byte { return wire.AppendGob(buf, r) }

// DecodeFrom implements wire.Body.
func (r *SetCatalogReq) DecodeFrom(p []byte) error { return wire.DecodeGob(p, r) }

// Kind implements wire.Body.
func (r *CatalogPushMsg) Kind() wire.MsgKind { return wire.KindCatalogPush }

// AppendTo implements wire.Body.
func (r *CatalogPushMsg) AppendTo(buf []byte) []byte { return wire.AppendGob(buf, r) }

// DecodeFrom implements wire.Body.
func (r *CatalogPushMsg) DecodeFrom(p []byte) error { return wire.DecodeGob(p, r) }

func init() {
	wire.RegisterBody(wire.KindGetCatalog, true, func() wire.Body { return &CatalogResp{} })
	wire.RegisterBody(wire.KindSetCatalog, false, func() wire.Body { return &SetCatalogReq{} })
	wire.RegisterBody(wire.KindCatalogPush, false, func() wire.Body { return &CatalogPushMsg{} })
}

// Server is the name server node.
type Server struct {
	peer *wire.Peer

	mu      sync.Mutex
	catalog *schema.Catalog
}

// New attaches a name server to the network at model.NameServerID with the
// given initial catalog (nil starts empty).
func New(net wire.Network, initial *schema.Catalog) (*Server, error) {
	if initial == nil {
		initial = schema.NewCatalog()
	}
	s := &Server{catalog: initial.Clone()}
	peer, err := wire.NewPeer(net, model.NameServerID, s.serve)
	if err != nil {
		return nil, fmt.Errorf("nameserver: %w", err)
	}
	s.peer = peer
	return s, nil
}

// Close detaches the server.
func (s *Server) Close() error { return s.peer.Close() }

// Catalog returns a deep copy of the current catalog (local, for tests and
// the admin tooling co-located with the server).
func (s *Server) Catalog() *schema.Catalog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catalog.Clone()
}

// Epoch returns the current catalog epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catalog.Epoch
}

// SetCatalog validates and installs a new catalog, bumping the epoch, then
// pushes the stamped catalog to every registered site. A nonzero Epoch on
// the submitted catalog is a compare-and-set token: the update is rejected
// as stale unless it matches the current epoch, so two administrators
// editing concurrently cannot silently clobber each other. Epoch 0 updates
// unconditionally.
func (s *Server) SetCatalog(c *schema.Catalog) error {
	if err := c.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if c.Epoch != 0 && c.Epoch != s.catalog.Epoch {
		cur := s.catalog.Epoch
		s.mu.Unlock()
		return fmt.Errorf("nameserver: stale catalog epoch %d (current %d)", c.Epoch, cur)
	}
	nc := c.Clone()
	nc.Epoch = s.catalog.Epoch + 1
	s.catalog = nc
	pushed := nc.Clone()
	s.mu.Unlock()
	s.push(pushed)
	return nil
}

// push casts the new catalog to every registered site, best-effort,
// concurrently and off the caller's lock: a transport that blocks dialing
// an unreachable site (TCP connect up to the 1s bound) must stall neither
// the update caller nor the other sites' deliveries. The poll loop covers
// anything a cast misses.
func (s *Server) push(c *schema.Catalog) {
	for _, id := range c.SiteIDs() {
		go func(id model.SiteID) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			s.peer.Cast(ctx, id, wire.KindCatalogPush, &CatalogPushMsg{Catalog: *c}) //nolint:errcheck // best-effort; poll catches up
		}(id)
	}
}

func (s *Server) serve(from model.SiteID, _ trace.ID, kind wire.MsgKind, pay wire.Payload) (wire.MsgKind, wire.Body, error) {
	switch kind {
	case wire.KindPing:
		return wire.KindOK, &wire.OKBody{}, nil

	case wire.KindGetCatalog:
		s.mu.Lock()
		cat := s.catalog.Clone()
		s.mu.Unlock()
		return wire.KindGetCatalog, &CatalogResp{Catalog: *cat}, nil

	case wire.KindGetEpoch:
		return wire.KindGetEpoch, &wire.EpochResp{Epoch: s.Epoch()}, nil

	case wire.KindSetCatalog:
		var req SetCatalogReq
		if err := pay.Decode(&req); err != nil {
			return 0, nil, err
		}
		if err := s.SetCatalog(&req.Catalog); err != nil {
			return 0, nil, err
		}
		return wire.KindOK, &wire.OKBody{}, nil

	case wire.KindRegisterSite:
		var req wire.RegisterSiteReq
		if err := pay.Decode(&req); err != nil {
			return 0, nil, err
		}
		s.mu.Lock()
		s.catalog.Sites[req.Site] = schema.SiteInfo{ID: req.Site, Addr: req.Addr}
		s.catalog.Epoch++
		s.mu.Unlock()
		return wire.KindOK, &wire.OKBody{}, nil

	default:
		return 0, nil, fmt.Errorf("nameserver: unhandled message kind %s", kind)
	}
}

// ---- Client helpers used by sites and tooling ----

// Fetch retrieves the catalog from the name server via peer.
func Fetch(ctx context.Context, peer *wire.Peer) (*schema.Catalog, error) {
	resp, err := wire.Call[CatalogResp](ctx, peer, model.NameServerID, wire.KindGetCatalog, &wire.GetCatalogReq{})
	if err != nil {
		return nil, fmt.Errorf("nameserver: fetch catalog: %w", err)
	}
	return &resp.Catalog, nil
}

// FetchEpoch retrieves just the catalog epoch — the cheap probe a site's
// catalog-poll loop issues every tick.
func FetchEpoch(ctx context.Context, peer *wire.Peer) (uint64, error) {
	resp, err := wire.Call[wire.EpochResp](ctx, peer, model.NameServerID, wire.KindGetEpoch, &wire.GetEpochReq{})
	if err != nil {
		return 0, fmt.Errorf("nameserver: fetch epoch: %w", err)
	}
	return resp.Epoch, nil
}

// Push validates locally and installs a new catalog on the name server.
func Push(ctx context.Context, peer *wire.Peer, c *schema.Catalog) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := peer.Call(ctx, model.NameServerID, wire.KindSetCatalog, &SetCatalogReq{Catalog: *c}, nil); err != nil {
		return fmt.Errorf("nameserver: push catalog: %w", err)
	}
	return nil
}

// Register records a site's endpoint with the name server.
func Register(ctx context.Context, peer *wire.Peer, site model.SiteID, addr string) error {
	req := &wire.RegisterSiteReq{Site: site, Addr: addr}
	if err := peer.Call(ctx, model.NameServerID, wire.KindRegisterSite, req, nil); err != nil {
		return fmt.Errorf("nameserver: register %s: %w", site, err)
	}
	return nil
}
