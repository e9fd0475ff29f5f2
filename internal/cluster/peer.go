package cluster

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"diffgossip/internal/transport"
)

// MemberState classifies a peer's liveness, inferred from how recently its
// (incarnation, heartbeat) pair advanced in this node's membership table.
type MemberState int

const (
	// MemberAlive means the member's liveness pair advanced within
	// Config.SuspectAfter (or it was learned of that recently).
	MemberAlive MemberState = iota
	// MemberSuspect means the pair has not advanced for Config.SuspectAfter:
	// the member still receives digests (it may merely be slow or briefly
	// partitioned) but counts against readiness.
	MemberSuspect
	// MemberDead means the pair has not advanced for Config.DeadAfter:
	// routine digests and pushes stop (a periodic probe remains); what the
	// member is owed stays in the ledger's retained history and streams out
	// in answer to its first digest after it returns.
	MemberDead
)

// String implements fmt.Stringer.
func (s MemberState) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// peer is everything this node knows about one other node, keyed in
// Node.peers by its origin id. The liveness pair (incarnation, heartbeat) is
// monotone for a live peer — its heartbeat advances every exchange it runs,
// its incarnation advances across restarts — so the pair stalling is exactly
// the failure signal, no matter how many gossip hops the observation
// travelled. Every field but id is guarded by Node.mu.
type peer struct {
	id                     string
	incarnation, heartbeat uint64
	lastAdvance            int64 // local clock when the pair last advanced (or the peer was learned)
	state                  MemberState
	lastSeen               int64  // local clock at the last message received from it (0 = never)
	lastErr                string // most recent send or apply error involving it ("" = healthy)
	// acks caches the watermarks the peer last advertised, advanced as
	// batches go out to it (nil until its first digest); the eager push
	// sends only what acks says it is missing. While exchanges <
	// inflightUntil, batches streamed to it may still be on the wire, and
	// sentFrom is acks as it stood when the first of them went out.
	acks          map[string]uint64
	inflightUntil uint64
	sentFrom      map[string]uint64
}

// send delivers msg to p, counts it by kind and records the outcome on p. It
// is the node's only call to Transport.Send; the caller must not hold n.mu.
func (n *Node) send(p *peer, msg transport.Message) error {
	err := n.tr.Send(p.id, msg)
	n.mu.Lock()
	defer n.mu.Unlock()
	switch msg.Kind {
	case transport.KindDigest:
		n.c.DigestsSent++
	case transport.KindEntries:
		n.c.BatchesSent++
	case transport.KindStateRequest:
		n.c.BootstrapRequestsSent++
	case transport.KindState:
		if err == nil {
			n.c.BootstrapRequestsServed++
		}
	}
	p.lastErr = ""
	if err != nil {
		p.lastErr = err.Error()
		n.log.Debug("send failed", "peer", p.id, "kind", msg.Kind.String(), "err", err)
	}
	return err
}

// sortedPeersLocked returns every peer in id order — the deterministic
// iteration order for exchanges, views and stats. Caller holds n.mu.
func (n *Node) sortedPeersLocked() []*peer {
	out := make([]*peer, 0, len(n.peers))
	for _, id := range slices.Sorted(maps.Keys(n.peers)) {
		out = append(out, n.peers[id])
	}
	return out
}

// viewLocked assembles the membership view gossiped on digests: self first,
// then every known peer in id order. Caller holds n.mu.
func (n *Node) viewLocked() []transport.PeerView {
	view := make([]transport.PeerView, 0, len(n.peers)+1)
	view = append(view, transport.PeerView{ID: n.self, Incarnation: n.selfInc, Heartbeat: n.selfHB})
	for _, p := range n.sortedPeersLocked() {
		view = append(view, transport.PeerView{ID: p.id, Incarnation: p.incarnation, Heartbeat: p.heartbeat})
	}
	return view
}

// mergeViewLocked folds a gossiped view into the membership table: unknown
// peers are added (transitive discovery — this is how a node bootstrapped
// with one seed learns the whole cluster), and a row whose liveness pair is
// ahead of ours advances the peer and refreshes its recency. Caller holds
// n.mu.
func (n *Node) mergeViewLocked(view []transport.PeerView, now int64) {
	for _, pv := range view {
		if pv.ID == "" || pv.ID == n.self {
			continue
		}
		p := n.peers[pv.ID]
		if p == nil {
			n.peers[pv.ID] = &peer{id: pv.ID, incarnation: pv.Incarnation, heartbeat: pv.Heartbeat, lastAdvance: now}
			continue
		}
		if pv.Incarnation > p.incarnation || (pv.Incarnation == p.incarnation && pv.Heartbeat > p.heartbeat) {
			p.incarnation, p.heartbeat = pv.Incarnation, pv.Heartbeat
			n.reviveLocked(p, now, "gossiped view")
		}
	}
}

// observeDirectLocked notes a message received directly from id — first-hand
// liveness evidence, refreshing recency even when the gossiped pair has not
// advanced (entries batches carry no view) — and returns its record. Unknown
// senders join the table, which is what re-admits a restarted peer that
// still remembers us. It returns nil for an empty id or our own. Caller
// holds n.mu.
func (n *Node) observeDirectLocked(id string, now int64) *peer {
	if id == "" || id == n.self {
		return nil
	}
	p := n.peers[id]
	if p == nil {
		p = &peer{id: id}
		n.peers[id] = p
	}
	p.lastSeen = now
	n.reviveLocked(p, now, "direct message")
	return p
}

// reviveLocked marks fresh liveness evidence for p. Caller holds n.mu.
func (n *Node) reviveLocked(p *peer, now int64, via string) {
	p.lastAdvance = now
	if p.state == MemberDead {
		n.log.Info("peer revived", "peer", p.id, "via", via)
	}
	p.state = MemberAlive
}

// updateStatesLocked reclassifies every peer from liveness-pair recency
// against the suspect/dead thresholds. Caller holds n.mu.
func (n *Node) updateStatesLocked(now int64) {
	for _, p := range n.peers {
		idle := now - p.lastAdvance
		next := MemberAlive
		switch {
		case idle >= n.deadAfter:
			next = MemberDead
		case idle >= n.suspectAfter:
			next = MemberSuspect
		}
		if next != p.state {
			n.log.Info("peer state changed",
				"peer", p.id, "from", p.state.String(), "to", next.String(),
				"idle", time.Duration(idle).String())
			p.state = next
		}
	}
}

// Degraded reports whether this node should fail its readiness probe on
// membership grounds: a majority of its known peers are suspect or dead —
// the node is likely the one partitioned, so a load balancer should stop
// routing to it. A node with no known peers (standalone, or a seed waiting
// to be found) is not degraded.
func (n *Node) Degraded() (bool, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.updateStatesLocked(n.now())
	down := 0
	for _, p := range n.peers {
		if p.state != MemberAlive {
			down++
		}
	}
	if down*2 > len(n.peers) {
		return true, fmt.Sprintf("%d/%d peers suspect or dead", down, len(n.peers))
	}
	return false, ""
}
