// Package transport provides the message-passing layer under the networked
// gossip agent (internal/agent): a Transport abstraction with two
// implementations — an in-memory channel hub for tests and simulations, and a
// TCP implementation (gob-framed, persistent connections) for running real
// distributed peers.
//
// Addresses are opaque strings: peer names for the channel hub, host:port for
// TCP.
package transport

import (
	"errors"
	"fmt"
	"sync"
)

// Message is the unit of exchange between agents. Payload fields cover every
// message the differential gossip protocol and the cluster anti-entropy
// exchange need; Kind discriminates.
type Message struct {
	// From is the sender's address.
	From string
	// Kind discriminates the payload.
	Kind Kind
	// Subject identifies which reputation subject a gossip pair concerns.
	Subject int
	// Y, G are the gossip pair masses (KindPair).
	Y, G float64
	// Count is the optional rater-count mass (KindPair).
	Count float64
	// Degree is the sender's overlay degree (KindDegree).
	Degree int
	// Converged is the sender's convergence flag (KindConverged).
	Converged bool
	// Watermarks, on a KindDigest message, maps origin node ids to the
	// highest origin sequence number the sender has applied; the receiver
	// answers with KindEntries batches for every origin it knows more of.
	Watermarks map[string]uint64
	// Origin and After frame a KindEntries batch: every entry in Entries
	// belongs to the feedback stream first accepted by the node Origin, and
	// the batch contiguously extends that stream past origin sequence number
	// After. A receiver whose watermark for Origin is below After must
	// discard the batch (a gap — an earlier batch was lost) and re-pull on
	// the next digest exchange.
	Origin string
	After  uint64
	// Entries is the replicated feedback batch (KindEntries), in strictly
	// ascending OriginSeq order.
	Entries []FeedbackEntry
	// View, on a KindDigest message, piggybacks the sender's membership
	// view: every peer it knows of, with the freshest (incarnation,
	// heartbeat) pair it has observed. Receivers merge the view to discover
	// peers transitively from a single seed.
	View []PeerView
	// State is the bootstrap payload of a KindState message (nil on every
	// other kind). Watermarks doubles as the requester's marks on a
	// KindStateRequest message.
	State *StatePayload
}

// StatePayload is the body of a snapshot-shipped bootstrap (KindState): the
// sender's folded shard segments plus its retained ledger suffix, everything
// a fresh or deeply lagging replica needs to converge in O(state) instead of
// replaying whole origin streams.
type StatePayload struct {
	// N is the network size the segments cover; Shards is their layout.
	N, Shards int
	// Segments holds one encoded shard snapshot per shard (the flat DGSG
	// record store.ShardSnapshot.Save writes), indexed by shard.
	Segments [][]byte
	// Folded are retained entries already reflected in Segments; Tail are
	// entries past the segments' fold points. Both in per-origin ascending
	// order, every entry origin-stamped.
	Folded []FeedbackEntry
	Tail   []FeedbackEntry
	// Marks are the sender's per-origin watermarks at capture time, keyed by
	// origin id (the sender's own stream under its id).
	Marks map[string]uint64
}

// PeerView is one row of a gossiped membership view. Liveness is ordered by
// (Incarnation, Heartbeat): a peer's own heartbeat increases while it runs,
// and its incarnation increases across restarts, so the pair advances
// monotonically for a live peer and stalls forever for a dead one.
type PeerView struct {
	// ID is the peer's cluster identity and the transport address it is
	// reached at.
	ID string
	// Incarnation counts the peer's process restarts.
	Incarnation uint64
	// Heartbeat counts the peer's anti-entropy exchanges within one
	// incarnation.
	Heartbeat uint64
}

// FeedbackEntry is the wire form of one replicated feedback ledger entry: the
// rating itself plus its origin tags. The (Origin, OriginSeq) pair globally
// identifies the entry, which is what makes replicated application
// idempotent. Inside a KindEntries batch the enclosing Message's Origin
// frame is authoritative; a state transfer mixes streams, so there each
// entry's own Origin is.
type FeedbackEntry struct {
	// Origin is the node id whose ledger first accepted the entry; OriginSeq
	// is the sequence number that ledger assigned.
	Origin    string
	OriginSeq uint64
	// Rater and Subject are node ids; Value is the direct trust t_ij ∈ [0,1].
	Rater, Subject int
	Value          float64
	// UnixNano is the ingest wall-clock time at the origin (0 when unknown).
	UnixNano int64
}

// Kind enumerates protocol message types.
type Kind int

const (
	// KindDegree announces the sender's degree (protocol setup).
	KindDegree Kind = iota
	// KindPair carries a gossip share.
	KindPair
	// KindConverged announces or revokes convergence.
	KindConverged
	// KindFeedback carries a direct-trust feedback value (Algorithm 2's
	// neighbour feedback phase).
	KindFeedback
	// KindDigest carries a cluster node's per-origin ledger watermarks — the
	// "send me everything past seq S" half of the anti-entropy pull.
	KindDigest
	// KindEntries carries a batch of replicated feedback ledger entries
	// answering a digest.
	KindEntries
	// KindStateRequest asks a peer for a full bootstrap state transfer; the
	// message's Watermarks carry the requester's per-origin marks so the
	// reply ships only what the requester is missing.
	KindStateRequest
	// KindState answers a state request with a StatePayload — folded shard
	// segments plus the retained ledger suffix.
	KindState
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDegree:
		return "degree"
	case KindPair:
		return "pair"
	case KindConverged:
		return "converged"
	case KindFeedback:
		return "feedback"
	case KindDigest:
		return "digest"
	case KindEntries:
		return "entries"
	case KindStateRequest:
		return "state-request"
	case KindState:
		return "state"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Transport moves messages between agents.
type Transport interface {
	// Addr returns this endpoint's address.
	Addr() string
	// Send delivers msg to the endpoint at addr. Implementations stamp
	// msg.From with this endpoint's address.
	Send(addr string, msg Message) error
	// Inbox returns the stream of received messages. The channel closes
	// when the transport closes.
	Inbox() <-chan Message
	// Close releases resources and closes the inbox.
	Close() error
}

// FailureReporter is implemented by transports that track consecutive send
// failures per peer (today the TCP transport's dial-backoff counters).
// Consumers type-assert on it to surface link health in their stats.
type FailureReporter interface {
	// ConsecutiveFailures maps peer address to the number of consecutive
	// failed connection attempts; healthy peers are omitted.
	ConsecutiveFailures() map[string]int
}

// Hub is an in-memory switchboard connecting ChannelTransport endpoints by
// name. Safe for concurrent use.
type Hub struct {
	mu        sync.RWMutex
	endpoints map[string]*ChannelTransport
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{endpoints: make(map[string]*ChannelTransport)}
}

// Endpoint registers (or returns the existing) endpoint with the given name.
func (h *Hub) Endpoint(name string) (*ChannelTransport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, exists := h.endpoints[name]; exists {
		return nil, fmt.Errorf("transport: endpoint %q already registered", name)
	}
	ep := &ChannelTransport{
		hub:   h,
		name:  name,
		inbox: make(chan Message, 1024),
	}
	h.endpoints[name] = ep
	return ep, nil
}

// deliver routes a message to the named endpoint.
func (h *Hub) deliver(to string, msg Message) error {
	h.mu.RLock()
	ep, ok := h.endpoints[to]
	h.mu.RUnlock()
	if !ok {
		return fmt.Errorf("transport: unknown endpoint %q", to)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return ErrClosed
	}
	ep.inbox <- msg
	return nil
}

// remove unregisters a closed endpoint.
func (h *Hub) remove(name string) {
	h.mu.Lock()
	delete(h.endpoints, name)
	h.mu.Unlock()
}

// ChannelTransport is a Hub endpoint.
type ChannelTransport struct {
	hub   *Hub
	name  string
	inbox chan Message

	mu     sync.Mutex
	closed bool
}

// Addr returns the endpoint name.
func (c *ChannelTransport) Addr() string { return c.name }

// Send delivers msg to the named endpoint via the hub.
func (c *ChannelTransport) Send(addr string, msg Message) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()
	msg.From = c.name
	return c.hub.deliver(addr, msg)
}

// Inbox returns the receive stream.
func (c *ChannelTransport) Inbox() <-chan Message { return c.inbox }

// Close unregisters the endpoint and closes the inbox.
func (c *ChannelTransport) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.hub.remove(c.name)
	close(c.inbox)
	return nil
}
