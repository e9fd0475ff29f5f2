package cluster

import (
	"bytes"

	"diffgossip/internal/service"
	"diffgossip/internal/store"
	"diffgossip/internal/transport"
)

// This file is the cluster half of bounded storage: history trimming (drop
// retained entries every member has acknowledged) and snapshot-shipped
// bootstrap (serve and install service.StateTransfer over the transport's
// KindStateRequest/KindState messages).

// trimFloors computes the per-origin trim floors: the minimum, over this node
// and every known member, of the watermark each has acknowledged for that
// origin. Entries at or below the floor are held by everyone and safe to
// drop. Returns nil — trim nothing — when there are no members, or when any
// member has never sent a digest (its ackMark is unknown): a silent member
// may still need everything, so it stalls trimming rather than risking loss.
func (n *Node) trimFloors() map[string]uint64 {
	mine := n.svc.ReplicationMarks()
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.members) == 0 {
		return nil
	}
	floors := make(map[string]uint64, len(mine))
	for o, s := range mine {
		floors[o] = s
	}
	for id := range n.members {
		am := n.ackMark[id]
		if am == nil {
			return nil
		}
		for o := range floors {
			if am[o] < floors[o] {
				floors[o] = am[o]
			}
		}
	}
	return floors
}

// trimRetainedHistory runs one history-trim pass (the Config.TrimEvery
// cadence): superseded entries below every member's acknowledged watermark
// are dropped from the in-memory replication history.
func (n *Node) trimRetainedHistory() {
	floors := n.trimFloors()
	if floors == nil {
		return
	}
	dropped := n.svc.TrimReplicationHistory(floors)
	if dropped == 0 {
		return
	}
	n.mu.Lock()
	n.stats.histTrims++
	n.stats.histTrimmed += uint64(dropped)
	n.mu.Unlock()
	n.log.Debug("trimmed replication history", "dropped", dropped)
}

// bootstrapRetryAfter is how many exchange ticks an unanswered state request
// stays outstanding before a later digest may trigger a re-request.
const bootstrapRetryAfter = 8

// maybeRequestBootstrap decides, on a received digest, whether to ask the
// sender for a full state transfer instead of pulling origin streams entry by
// entry: a fresh node (empty ledger) requests on any lag at all, an
// established one only when its total lag exceeds Config.BootstrapLag. One
// request is outstanding at a time, retried after bootstrapRetryAfter
// exchanges if unanswered.
func (n *Node) maybeRequestBootstrap(msg transport.Message) {
	if n.bootstrapLag == 0 {
		return
	}
	mine := n.svc.ReplicationMarks()
	fresh := n.svc.LedgerSeq() == 0
	var lag uint64
	for o, theirs := range msg.Watermarks {
		if o == n.self {
			continue
		}
		if have := mine[o]; theirs > have {
			lag += theirs - have
		}
	}
	if lag == 0 || (!fresh && lag <= n.bootstrapLag) {
		return
	}
	n.mu.Lock()
	if at := n.bootstrapReqAt; at != 0 && n.exchanges < at+bootstrapRetryAfter {
		n.mu.Unlock()
		return // a request is already in flight
	}
	n.bootstrapReqAt = n.exchanges + 1
	n.stats.stateReqsSent++
	n.mu.Unlock()

	err := n.tr.Send(msg.From, transport.Message{
		Kind:       transport.KindStateRequest,
		Watermarks: mine,
	})
	n.mu.Lock()
	n.recordSendLocked(msg.From, err)
	if err != nil {
		n.bootstrapReqAt = 0 // failed to even send; retry on the next digest
	}
	n.mu.Unlock()
	if err == nil {
		n.log.Info("requested bootstrap state", "peer", msg.From, "lag", lag, "fresh", fresh)
	}
}

// handleStateRequest serves a peer's bootstrap request: assemble the state
// transfer against the requester's marks and ship it as one KindState
// message. Every node serves requests regardless of its own BootstrapLag
// setting.
func (n *Node) handleStateRequest(msg transport.Message) {
	st, err := n.svc.BootstrapState(msg.Watermarks)
	if err != nil {
		n.mu.Lock()
		n.stats.bootstrapErrs++
		n.mu.Unlock()
		n.log.Warn("bootstrap state assembly failed", "peer", msg.From, "err", err)
		return
	}
	payload := &transport.StatePayload{
		Shards:   len(st.Segments),
		Segments: make([][]byte, len(st.Segments)),
		Folded:   toWire(st.Folded),
		Tail:     toWire(st.Tail),
		Marks:    st.Marks,
	}
	for i, seg := range st.Segments {
		payload.N = seg.N
		var buf bytes.Buffer
		if err := seg.Save(&buf); err != nil {
			n.mu.Lock()
			n.stats.bootstrapErrs++
			n.mu.Unlock()
			n.log.Warn("bootstrap segment encode failed", "shard", i, "err", err)
			return
		}
		payload.Segments[i] = buf.Bytes()
	}
	err = n.tr.Send(msg.From, transport.Message{Kind: transport.KindState, State: payload})
	n.mu.Lock()
	n.recordSendLocked(msg.From, err)
	if err == nil {
		n.stats.stateReqsServed++
	}
	n.mu.Unlock()
	if err == nil {
		n.log.Info("served bootstrap state", "peer", msg.From,
			"folded", len(payload.Folded), "tail", len(payload.Tail))
	}
}

// handleState installs a solicited state transfer. Unsolicited KindState
// messages — nothing outstanding, or a duplicate answer — are dropped: a
// transfer rewrites the whole local state, so only an answer this node asked
// for is trusted.
func (n *Node) handleState(msg transport.Message) {
	n.mu.Lock()
	pending := n.bootstrapReqAt != 0
	n.bootstrapReqAt = 0
	n.mu.Unlock()
	if !pending || msg.State == nil {
		return
	}
	st := &service.StateTransfer{
		Segments: make([]*store.ShardSnapshot, len(msg.State.Segments)),
		Folded:   fromWire(msg.State.Folded),
		Tail:     fromWire(msg.State.Tail),
		Marks:    msg.State.Marks,
	}
	for i, raw := range msg.State.Segments {
		seg, err := store.LoadShardSnapshot(bytes.NewReader(raw))
		if err != nil {
			n.mu.Lock()
			n.stats.bootstrapErrs++
			n.mu.Unlock()
			n.log.Warn("bootstrap segment decode failed", "peer", msg.From, "shard", i, "err", err)
			return
		}
		st.Segments[i] = seg
	}
	if err := n.svc.InstallBootstrap(st); err != nil {
		n.mu.Lock()
		n.stats.bootstrapErrs++
		n.mu.Unlock()
		n.log.Warn("bootstrap install failed", "peer", msg.From, "err", err)
		return
	}
	n.mu.Lock()
	n.stats.statesInstalled++
	n.mu.Unlock()
	n.log.Info("installed bootstrap state", "peer", msg.From,
		"folded", len(st.Folded), "tail", len(st.Tail))
}
