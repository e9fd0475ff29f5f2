package cluster

import (
	"fmt"
	"sort"
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

// member is one row of this node's membership table. The liveness pair
// (incarnation, heartbeat) is monotone for a live peer — its heartbeat
// advances every exchange it runs, its incarnation advances across restarts
// — so the pair stalling is exactly the failure signal, no matter how many
// gossip hops the observation travelled.
type member struct {
	id          string
	addr        string
	incarnation uint64
	heartbeat   uint64
	lastAdvance int64 // local clock when the pair last advanced (or the member was learned)
	state       MemberState
}

// viewLocked assembles the membership view gossiped on digests: self first,
// then every known member in id order. Caller holds n.mu.
func (n *Node) viewLocked() []transport.PeerView {
	view := make([]transport.PeerView, 0, len(n.members)+1)
	view = append(view, transport.PeerView{
		ID: n.self, Addr: n.self, Incarnation: n.selfInc, Heartbeat: n.selfHB,
	})
	for _, id := range n.memberIDsLocked() {
		m := n.members[id]
		view = append(view, transport.PeerView{
			ID: m.id, Addr: m.addr, Incarnation: m.incarnation, Heartbeat: m.heartbeat,
		})
	}
	return view
}

// memberIDsLocked returns every member id in sorted order — the
// deterministic iteration order for exchanges and views. Caller holds n.mu.
func (n *Node) memberIDsLocked() []string {
	ids := make([]string, 0, len(n.members))
	for id := range n.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// mergeViewLocked folds a gossiped view into the membership table: unknown
// peers are added (transitive discovery — this is how a node bootstrapped
// with one seed learns the whole cluster), and a row whose liveness pair is
// ahead of ours advances the member and refreshes its recency. Caller holds
// n.mu.
func (n *Node) mergeViewLocked(view []transport.PeerView, now int64) {
	for _, pv := range view {
		if pv.ID == "" || pv.ID == n.self {
			continue
		}
		m := n.members[pv.ID]
		if m == nil {
			addr := pv.Addr
			if addr == "" {
				addr = pv.ID
			}
			n.members[pv.ID] = &member{
				id: pv.ID, addr: addr,
				incarnation: pv.Incarnation, heartbeat: pv.Heartbeat,
				lastAdvance: now, state: MemberAlive,
			}
			continue
		}
		if pv.Incarnation > m.incarnation ||
			(pv.Incarnation == m.incarnation && pv.Heartbeat > m.heartbeat) {
			m.incarnation, m.heartbeat = pv.Incarnation, pv.Heartbeat
			if pv.Addr != "" {
				m.addr = pv.Addr
			}
			m.lastAdvance = now
			if m.state == MemberDead {
				n.log.Info("peer revived", "peer", m.id, "via", "gossiped view")
			}
			m.state = MemberAlive
		}
	}
}

// observeDirectLocked notes a message received directly from id — first-hand
// liveness evidence, refreshing recency even when the gossiped pair has not
// advanced (entries batches carry no view). Unknown senders join the table,
// which is what re-admits a restarted peer that still remembers us. It
// reports whether the member was dead until now. Caller holds n.mu.
func (n *Node) observeDirectLocked(id string, now int64) bool {
	if id == "" || id == n.self {
		return false
	}
	m := n.members[id]
	if m == nil {
		n.members[id] = &member{id: id, addr: id, lastAdvance: now, state: MemberAlive}
		return false
	}
	m.lastAdvance = now
	wasDead := m.state == MemberDead
	if wasDead {
		n.log.Info("peer revived", "peer", id, "via", "direct message")
	}
	m.state = MemberAlive
	return wasDead
}

// updateStatesLocked reclassifies every member from liveness-pair recency
// against the suspect/dead thresholds. Caller holds n.mu.
func (n *Node) updateStatesLocked(now int64) {
	for _, m := range n.members {
		idle := now - m.lastAdvance
		next := MemberAlive
		switch {
		case idle >= n.deadAfter:
			next = MemberDead
		case idle >= n.suspectAfter:
			next = MemberSuspect
		}
		if next != m.state {
			n.log.Info("peer state changed",
				"peer", m.id, "from", m.state.String(), "to", next.String(),
				"idle", time.Duration(idle).String())
			m.state = next
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
	if len(n.members) == 0 {
		return false, ""
	}
	down := 0
	for _, m := range n.members {
		if m.state != MemberAlive {
			down++
		}
	}
	if down*2 > len(n.members) {
		return true, fmt.Sprintf("%d/%d peers suspect or dead", down, len(n.members))
	}
	return false, ""
}
