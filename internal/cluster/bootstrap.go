package cluster

import (
	"bytes"
	"fmt"

	"diffgossip/internal/service"
	"diffgossip/internal/store"
	"diffgossip/internal/transport"
)

// This file is the cluster half of snapshot-shipped bootstrap: serve and
// install service.StateTransfer over the transport's
// KindStateRequest/KindState messages.

// bootstrapRetryAfter is how many exchange ticks an unanswered state request
// stays outstanding before a later digest may trigger a re-request.
const bootstrapRetryAfter = 8

// maybeRequestBootstrap decides, on a digest received from p, whether to ask
// it for a full state transfer instead of pulling origin streams entry by
// entry: a fresh node (empty ledger) requests on any lag at all, an
// established one only when its total lag exceeds Config.BootstrapLag. One
// request is outstanding at a time, retried after bootstrapRetryAfter
// exchanges if unanswered.
func (n *Node) maybeRequestBootstrap(p *peer, msg transport.Message) {
	if n.bootstrapLag == 0 {
		return
	}
	mine := n.svc.ReplicationMarks()
	fresh := n.svc.LedgerSeq() == 0
	var lag uint64
	for o, theirs := range msg.Watermarks {
		if have := mine[o]; o != n.self && theirs > have {
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
	n.mu.Unlock()

	if err := n.send(p, transport.Message{Kind: transport.KindStateRequest, Watermarks: mine}); err != nil {
		n.mu.Lock()
		n.bootstrapReqAt = 0 // failed to even send; retry on the next digest
		n.mu.Unlock()
		return
	}
	n.log.Info("requested bootstrap state", "peer", p.id, "lag", lag, "fresh", fresh)
}

// handleStateRequest serves a peer's bootstrap request: assemble the state
// transfer against the requester's marks and ship it as one KindState
// message. Every node serves requests regardless of its own BootstrapLag
// setting.
func (n *Node) handleStateRequest(p *peer, msg transport.Message) {
	payload, err := n.statePayload(msg.Watermarks)
	if err != nil {
		n.inc(&n.c.BootstrapErrors)
		n.log.Warn("bootstrap state assembly failed", "peer", p.id, "err", err)
		return
	}
	if n.send(p, transport.Message{Kind: transport.KindState, State: payload}) == nil {
		n.log.Info("served bootstrap state", "peer", p.id,
			"folded", len(payload.Folded), "tail", len(payload.Tail))
	}
}

// statePayload assembles the service's state transfer against a requester's
// marks, in wire form.
func (n *Node) statePayload(marks map[string]uint64) (*transport.StatePayload, error) {
	st, err := n.svc.BootstrapState(marks)
	if err != nil {
		return nil, err
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
			return nil, fmt.Errorf("encode shard %d: %w", i, err)
		}
		payload.Segments[i] = buf.Bytes()
	}
	return payload, nil
}

// handleState installs a solicited state transfer. Unsolicited KindState
// messages — nothing outstanding, or a duplicate answer — are dropped: a
// transfer rewrites the whole local state, so only an answer this node asked
// for is trusted.
func (n *Node) handleState(p *peer, msg transport.Message) {
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
	var err error
	for i, raw := range msg.State.Segments {
		if st.Segments[i], err = store.LoadShardSnapshot(bytes.NewReader(raw)); err != nil {
			err = fmt.Errorf("decode shard %d: %w", i, err)
			break
		}
	}
	if err == nil {
		err = n.svc.InstallBootstrap(st)
	}
	if err != nil {
		n.inc(&n.c.BootstrapErrors)
		n.log.Warn("bootstrap install failed", "peer", p.id, "err", err)
		return
	}
	n.inc(&n.c.BootstrapsInstalled)
	n.log.Info("installed bootstrap state", "peer", p.id,
		"folded", len(st.Folded), "tail", len(st.Tail))
}
