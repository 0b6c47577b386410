// Package wire defines Rainbow's wire protocol: typed message envelopes,
// the compact binary body codec (see codec.go), the transport abstraction
// implemented by both the simulated network (internal/simnet) and real TCP
// (internal/tcpnet), and a request/response RPC peer with correlation IDs.
//
// Every message body — even on the in-process simulated network — is
// encoded into Envelope.Payload before delivery. This gives three
// properties the paper depends on: (1) message sizes are real, so the
// "total number of messages generated per time unit" and byte-traffic
// statistics are meaningful; (2) no accidental pointer sharing between
// sites; (3) the simulated and TCP transports carry byte-identical
// traffic. Senders attach the typed Body and let the transport encode it
// at flush time.
package wire

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// MsgKind identifies the body type carried by an envelope. The receiver
// decodes the payload according to the kind.
type MsgKind uint16

// Message kinds, grouped by subsystem.
const (
	// Generic.
	KindError MsgKind = iota + 1
	KindOK

	// Name server (NSlet traffic).
	KindRegisterSite
	KindGetCatalog
	KindSetCatalog
	KindPing

	// Data access through RCP/CCP (Section 2.1: copies are read or
	// pre-written through the CCP).
	KindReadCopy
	KindPreWrite
	KindReleaseTx

	// Atomic commit protocols.
	KindPrepare
	KindVote
	KindDecision
	KindAck
	KindDecisionReq
	KindPreCommit // 3PC phase 2
	KindTermState // cooperative termination: participant state query

	// Progress monitor (PMlet traffic).
	KindGetStats
	KindResetStats
	KindGetHistory

	// Workload generator (WLGlet traffic).
	KindSubmitTx

	// Atomic commit protocols, continued. Appended after the original
	// block so existing kinds keep their wire numbers (mixed-version
	// clusters would otherwise misdispatch every kind after the insert).
	KindEndTx // cohort fully acknowledged: retire the decision entry

	// Online catalog reconfiguration (appended for the same wire-number
	// stability reason).
	KindGetEpoch    // lightweight catalog-version probe (site poll)
	KindCatalogPush // name server -> site: a new catalog version exists

	// Quorum-based (E3PC) 3PC termination (appended for wire-number
	// stability).
	KindTermQuery     // election: promise a ballot, report state + eb
	KindTermPreDecide // elected initiator's pre-decision broadcast
)

var kindNames = map[MsgKind]string{
	KindError:         "Error",
	KindOK:            "OK",
	KindRegisterSite:  "RegisterSite",
	KindGetCatalog:    "GetCatalog",
	KindSetCatalog:    "SetCatalog",
	KindPing:          "Ping",
	KindReadCopy:      "ReadCopy",
	KindPreWrite:      "PreWrite",
	KindReleaseTx:     "ReleaseTx",
	KindPrepare:       "Prepare",
	KindVote:          "Vote",
	KindDecision:      "Decision",
	KindAck:           "Ack",
	KindDecisionReq:   "DecisionReq",
	KindPreCommit:     "PreCommit",
	KindTermState:     "TermState",
	KindEndTx:         "EndTx",
	KindGetEpoch:      "GetEpoch",
	KindCatalogPush:   "CatalogPush",
	KindTermQuery:     "TermQuery",
	KindTermPreDecide: "TermPreDecide",
	KindGetStats:      "GetStats",
	KindResetStats:    "ResetStats",
	KindGetHistory:    "GetHistory",
	KindSubmitTx:      "SubmitTx",
}

// String names the kind for logs and traces.
func (k MsgKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("MsgKind(%d)", uint16(k))
}

// Envelope is the unit of transfer between Rainbow nodes.
type Envelope struct {
	From, To model.SiteID
	Kind     MsgKind
	// Corr correlates a reply with its request. Zero for one-way casts.
	Corr uint64
	// Reply marks response envelopes.
	Reply bool
	// Trace is the sampled-transaction trace ID riding this request
	// (trace.ID; zero — the overwhelmingly common case — means untraced
	// and costs nothing on the wire beyond one flag bit). Receivers record
	// their fragment of the distributed trace under this ID.
	Trace uint64
	// Payload is the binary-encoded body; its type is determined by Kind.
	// Local senders leave it nil and attach Body instead — the transport
	// encodes at flush time.
	Payload []byte
	// Body is the typed body before encoding. It never crosses the wire:
	// transports encode it with Body.AppendTo (the simulator via Flatten).
	Body Body
}

// Size returns the approximate on-wire size of the envelope in bytes,
// counting addressing and header overhead plus the payload. Used by the
// traffic statistics.
func (e *Envelope) Size() int {
	return len(e.From) + len(e.To) + 2 /*kind*/ + 8 /*corr*/ + 1 /*reply*/ + len(e.Payload)
}

// Flatten encodes Body into Payload and nils Body, so the envelope is safe
// to deliver across site boundaries (no pointer sharing). Envelopes without
// a Body — pre-encoded or raw-payload ones — are left untouched.
func (e *Envelope) Flatten() {
	if e.Body == nil {
		return
	}
	e.Payload = e.Body.AppendTo(nil)
	e.Body = nil
}

// Handler consumes inbound envelopes. Transports invoke it on their own
// goroutines; handlers must be safe for concurrent use.
type Handler func(env *Envelope)

// BatchHandler consumes the envelopes of one decoded wire frame as a
// slice, letting the receiver amortize per-delivery work (e.g. reply
// correlation) over the batch. Like Handler it runs on transport
// goroutines and must be safe for concurrent use.
type BatchHandler func(envs []*Envelope)

// BatchNetwork is implemented by transports whose receive side can deliver
// decoded envelopes in slices — one slice per multi-envelope wire frame.
// Peers attach through it when available; connections (or transports) that
// only carry single envelopes keep using the plain Handler.
type BatchNetwork interface {
	Network
	AttachBatch(id model.SiteID, h Handler, bh BatchHandler) (Endpoint, error)
}

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// ID returns the node's address on the network.
	ID() model.SiteID
	// Send delivers env to env.To. Delivery is asynchronous and unreliable
	// in the same sense as the underlying network: an error indicates only
	// local failures (node detached, unknown destination); silent loss is
	// possible on lossy networks.
	Send(ctx context.Context, env *Envelope) error
	// Close detaches the node. Subsequent Sends fail.
	Close() error
}

// Network attaches nodes. Implemented by simnet.Net and tcpnet.Net.
type Network interface {
	// Attach registers a node and its inbound handler, returning its
	// endpoint. Attaching an already-attached id is an error.
	Attach(id model.SiteID, h Handler) (Endpoint, error)
}

// ---- Message bodies ----
//
// One struct per message kind; the binary encodings live in codec.go.

// ErrorBody reports a remote failure, preserving the abort cause across the
// wire so coordinators can classify aborts per protocol.
type ErrorBody struct {
	Cause  model.AbortCause
	Reason string
}

// Err converts the body back into an error: an *model.AbortError when a
// protocol abort crossed the wire, a generic error otherwise.
func (b *ErrorBody) Err() error {
	if b.Cause == model.AbortNone {
		return fmt.Errorf("remote error: %s", b.Reason)
	}
	return &model.AbortError{Cause: b.Cause, Reason: b.Reason}
}

// OKBody is the empty success response.
type OKBody struct{}

// RegisterSiteReq registers a site with the name server.
type RegisterSiteReq struct {
	Site model.SiteID
	Addr string // transport-specific endpoint specification
}

// GetCatalogReq asks the name server for the current catalog.
type GetCatalogReq struct{}

// PingReq checks liveness; the monitor uses it for load-balance probing.
type PingReq struct{}

// ReadCopyReq asks a site to read its local copy of Item on behalf of Tx,
// passing through the site's CCP. The response is ReadCopyResp.
type ReadCopyReq struct {
	Tx   model.TxID
	TS   model.Timestamp
	Item model.ItemID
}

// ReadCopyResp returns the local copy's current value and version. Clock
// carries the serving site's Lamport time so the coordinator can witness it
// (clock gossip keeps lagging sites from issuing stale timestamps that
// timestamp-ordering CCPs would reject).
type ReadCopyResp struct {
	Value   int64
	Version model.Version
	Clock   uint64
	// Incarnation is the serving site's incarnation number (bumped on every
	// stack rebuild). The home site records it in the transaction's session
	// and echoes it in the prepare, so a site that crashed and recovered
	// between this operation and the prepare rejects the prepare exactly —
	// its CC protection for the operation died with the old incarnation.
	Incarnation uint64
}

// PreWriteReq asks a site to pre-write its local copy of Item: pass through
// the CCP, buffer the intent, and return the copy's current version number
// (Section 2.1: copies are "pre-written (returning their current version
// number) through CCP").
type PreWriteReq struct {
	Tx    model.TxID
	TS    model.Timestamp
	Item  model.ItemID
	Value int64
	// Add marks a commutative blind-add pre-write: Value is a delta merged
	// into the copy at commit, and the CCP may admit it without mutual
	// exclusion (hot-item split execution).
	Add bool
}

// PreWriteResp returns the current (pre-write) version of the copy, plus
// the serving site's Lamport time (see ReadCopyResp.Clock).
type PreWriteResp struct {
	Version model.Version
	Clock   uint64
	// Incarnation is the serving site's incarnation number — see
	// ReadCopyResp.Incarnation.
	Incarnation uint64
}

// ReleaseTxReq tells a participant to discard all CC state for an aborted
// transaction that never reached the commit protocol.
type ReleaseTxReq struct {
	Tx model.TxID
}

// PrepareReq is 2PC/3PC phase 1: the coordinator ships each participant its
// final write records (with install versions) and asks for a vote.
type PrepareReq struct {
	Tx          model.TxID
	TS          model.Timestamp
	Coordinator model.SiteID
	// Writes are the records this participant must install on commit.
	Writes []model.WriteRecord
	// Participants lists all cohort members, enabling cooperative
	// termination when the coordinator fails.
	Participants []model.SiteID
	// ThreePhase selects the 3PC state machine on the participant.
	ThreePhase bool
	// NoReadOnlyOpt disables the read-only participant optimization for
	// this transaction (ablation knob).
	NoReadOnlyOpt bool
	// Epoch is the catalog epoch the transaction began under. A
	// participant whose stack was rebuilt live at a newer epoch votes no:
	// the rebuild discarded CC state exactly like a crash, so a pre-bump
	// transaction's locks may be gone and preparing it could serialize two
	// conflicting writers onto one version (the epoch fence).
	Epoch uint64
	// Voters is the 3PC termination electorate: the cohort members that
	// hold writes (all participants when the read-only optimization is
	// off). Quorum termination counts majorities over this fixed set;
	// read-only participants release at vote time and hold no termination
	// state, so counting them would let a quorum form that cannot
	// intersect the pre-commit quorum. Empty for 2PC.
	Voters []model.SiteID
	// Incarnation is the target site's incarnation number observed when
	// this transaction operated there (first copy operation wins). The
	// site rejects the prepare when its current incarnation differs: a
	// crash recovery in between discarded the CC protection this prepare
	// relies on. Zero means unknown (no copy op recorded one) and skips
	// the check — the intent validation below still applies.
	Incarnation uint64
}

// VoteResp is the participant's vote. ReadOnly is the presumed-abort
// read-only optimization: a participant holding no writes for the
// transaction votes "read", releases its CC state immediately, and is
// excluded from phase 2.
type VoteResp struct {
	Yes      bool
	ReadOnly bool
	Reason   string
}

// PreCommitReq is 3PC phase 2 (the "prepared to commit" broadcast).
type PreCommitReq struct {
	Tx model.TxID
}

// DecisionMsg carries the final commit/abort decision.
type DecisionMsg struct {
	Tx     model.TxID
	Commit bool
}

// AckMsg acknowledges a decision or pre-commit.
type AckMsg struct {
	Tx model.TxID
}

// EndTxMsg tells a participant the whole cohort acknowledged the decision
// (the coordinator logged its end record): no one will ever ask for the
// outcome again, so the participant may retire its decision-table entry.
// Delivery is best-effort — a lost message only delays retirement until the
// participant's next restart cannot even observe it (the entry merely
// lingers, costing snapshot bytes, never correctness).
type EndTxMsg struct {
	Tx model.TxID
}

// GetEpochReq asks the name server for the current catalog epoch only — the
// cheap staleness probe behind each site's catalog-poll loop (the full
// catalog is fetched only when the epoch moved).
type GetEpochReq struct{}

// EpochResp answers a GetEpochReq.
type EpochResp struct {
	Epoch uint64
}

// DecisionReq asks the coordinator (or a peer, during cooperative
// termination) for the outcome of an in-doubt transaction. ThreePhase
// marks a query about a 3PC transaction: the answerer must then never
// apply presumed abort — a 3PC cohort can commit by quorum termination
// without its coordinator, so an answerer with no record (a recovered
// coordinator that never logged, a stray peer) answers "unknown" instead
// of "abort". 2PC queries keep presumed abort.
type DecisionReq struct {
	Tx         model.TxID
	ThreePhase bool
}

// DecisionResp answers a DecisionReq. Known=false means the answerer does
// not know the outcome either.
type DecisionResp struct {
	Known  bool
	Commit bool
}

// TermStateReq asks a cohort member for its 3PC state during termination.
type TermStateReq struct {
	Tx model.TxID
}

// TermStateResp reports the member's commit-protocol state.
type TermStateResp struct {
	State uint8 // acp.TermState values
}

// TermQueryReq is quorum termination's election message: the initiator
// asks a cohort member to promise Ballot and report its termination state.
// A member with live state promises only ballots above its current "ea"
// (and forces the promise before answering).
type TermQueryReq struct {
	Tx     model.TxID
	Ballot model.Ballot
}

// TermQueryResp answers a TermQueryReq.
type TermQueryResp struct {
	// Accepted reports whether the member promised the ballot. EA returns
	// the member's current promise either way, so a rejected initiator can
	// retry with a higher attempt number.
	Accepted bool
	EA       model.Ballot
	// State is the member's commit-protocol state (acp.TermState values).
	// A member with NO trace of the transaction never answers Accepted:
	// it unilaterally decides abort — durably — and replies Decided (its
	// yes vote was never cast, so no commit can exist anywhere, and the
	// logged abort fences a late prepare from casting it retroactively).
	// EB is the ballot of the attempt the member last accepted a
	// pre-decision under.
	State uint8
	EB    model.Ballot
	// Decided/Commit short-circuit the election: the member already knows
	// the outcome.
	Decided bool
	Commit  bool
}

// TermPreDecideReq is the elected initiator's pre-decision broadcast:
// members that still honor Ballot force the pre-decision (their new "eb")
// and acknowledge; once a quorum has accepted, the initiator may decide.
type TermPreDecideReq struct {
	Tx     model.TxID
	Ballot model.Ballot
	Commit bool
}

// TermPreDecideResp answers a TermPreDecideReq.
type TermPreDecideResp struct {
	Accepted bool
	// Decided/Commit report an already-known outcome (the pre-decision is
	// then moot and the initiator adopts the decision instead).
	Decided bool
	Commit  bool
}

// SubmitTxReq submits a transaction for execution at a home site. The site
// assigns the TxID.
type SubmitTxReq struct {
	Ops []model.Op
}

// SubmitTxResp returns the outcome of a synchronously executed transaction.
type SubmitTxResp struct {
	Outcome model.Outcome
}
