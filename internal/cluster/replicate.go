package cluster

import (
	"fmt"
	"maps"
	"slices"

	"diffgossip/internal/store"
	"diffgossip/internal/transport"
)

// deadProbeEvery is the cadence (in exchange ticks) at which dead members
// still receive a digest — the cheap probe that notices a peer which came
// back without remembering us. The TCP transport's dial backoff keeps even
// these probes from hammering a host that is really gone.
const deadProbeEvery = 4

// digestAnswerBatches is the most batches one digest answer streams per
// origin: 4096 entries at 256 per batch, and few enough messages that a
// manually driven hub inbox (1,024 deep) cannot fill before its Drain.
const digestAnswerBatches = 16

// inflightTicks is how many exchange ticks, from the one in which batches
// start going out to a peer, its digests are taken to possibly predate them:
// long enough for a streamed answer to land and be applied before the peer's
// next periodic digest, short enough that a lost one is re-pulled promptly.
const inflightTicks = 2

// Exchange runs one anti-entropy tick: advance this node's heartbeat,
// reclassify members, send a digest (with the membership view) to every
// non-dead member — plus a periodic probe to dead ones — and eagerly push
// up to one batch per origin past each live peer's cached watermarks. A peer
// whose digest has never been seen is not pushed to: nothing says what it
// needs. Send failures are recorded per peer (see Stats) and never abort the
// round: an unreachable peer pulls what it missed with its next digest.
func (n *Node) Exchange() {
	mine := n.svc.ReplicationMarks()
	n.mu.Lock()
	n.selfHB++
	n.updateStatesLocked(n.now())
	n.exchanges++
	probe := n.exchanges%deadProbeEvery == 0
	view := n.viewLocked()
	var digest, push []*peer
	for _, p := range n.sortedPeersLocked() {
		if p.state != MemberDead || probe {
			digest = append(digest, p)
		}
		if p.state != MemberDead && p.acks != nil {
			push = append(push, p)
		}
	}
	n.mu.Unlock()

	for _, p := range digest {
		n.send(p, transport.Message{Kind: transport.KindDigest, Watermarks: mine, View: view})
	}
	for _, p := range push {
		n.catchUp(p, mine, 1)
	}
}

// handleDigest folds a peer's watermark digest into its cached marks (see
// ackDigestLocked) and answers with consecutive entries batches per origin
// stream the peer trails on, until it is level or digestAnswerBatches have
// gone out for that origin; deeper backlogs continue on the peer's next
// digest. When the digest shows the *sender* ahead instead, one digest goes
// back to it — so replication is two-way on any connected join graph, even
// if only one side lists the other as a peer. The reciprocal fires only
// while strictly behind, so it cannot ping-pong once the streams agree.
func (n *Node) handleDigest(p *peer, msg transport.Message) {
	mine := n.svc.ReplicationMarks()
	n.mu.Lock()
	n.c.DigestsReceived++
	n.ackDigestLocked(p, msg.Watermarks)
	awaitingState := n.bootstrapReqAt != 0
	view := n.viewLocked()
	n.mu.Unlock()

	behind := false
	for o, theirs := range msg.Watermarks {
		behind = behind || (o != n.self && theirs > mine[o])
	}
	// While a state request is outstanding the reciprocal digest is
	// suppressed: advertising stale marks would invite entry pushes the
	// incoming transfer covers wholesale.
	if behind && !awaitingState {
		n.send(p, transport.Message{Kind: transport.KindDigest, Watermarks: mine, View: view})
	}
	n.catchUp(p, mine, digestAnswerBatches)
}

// ackDigestLocked folds p's digest into p.acks. Outside the in-flight window
// the digest is authoritative and replaces the cache — downward too, when a
// batch counted as sent was lost, which is how the push resynchronises.
// Inside it the digest may have left p before batches streamed to it
// arrived: a mark at or above sentFrom only raises the cache, so what is on
// the wire is neither answered again nor re-pushed, while a mark below it
// means a batch sent before the window was lost, and resets that origin.
// Caller holds n.mu.
func (n *Node) ackDigestLocked(p *peer, marks map[string]uint64) {
	if p.acks == nil || n.exchanges >= p.inflightUntil {
		p.acks = make(map[string]uint64, len(marks))
		maps.Copy(p.acks, marks)
		return
	}
	for o, from := range p.sentFrom {
		if s := marks[o]; s < from {
			p.acks[o], p.sentFrom[o] = s, s
		}
	}
	for o, s := range marks {
		p.acks[o] = max(p.acks[o], s)
	}
}

// catchUp streams p, in deterministic origin order, every origin stream its
// cached marks trail mine on, up to budget batches each — except p's own
// stream, which it cannot be missing.
func (n *Node) catchUp(p *peer, mine map[string]uint64, budget int) {
	for _, o := range slices.Sorted(maps.Keys(mine)) {
		n.mu.Lock()
		after := p.acks[o]
		n.mu.Unlock()
		if o != p.id && mine[o] > after {
			n.stream(p, o, after, budget)
		}
	}
}

// stream frames origin's stream past after into up to budget consecutive
// KindEntries batches of at most maxBatch entries to p, stopping early once
// nothing more is retained or a send fails. Every sent batch advances p's
// cached mark — opening the in-flight window first if it is closed — so
// neither the push nor an answer to a stale digest sends it again.
func (n *Node) stream(p *peer, origin string, after uint64, budget int) {
	for ; budget > 0; budget-- {
		ents := n.svc.ReplicationEntriesSince(origin, after, n.maxBatch)
		if len(ents) == 0 {
			return
		}
		if n.send(p, transport.Message{Kind: transport.KindEntries, Origin: origin, After: after, Entries: toWire(ents)}) != nil {
			return
		}
		after = ents[len(ents)-1].OriginSeq
		n.mu.Lock()
		if n.exchanges >= p.inflightUntil {
			p.sentFrom = maps.Clone(p.acks)
			p.inflightUntil = n.exchanges + inflightTicks
		}
		p.acks[origin] = max(p.acks[origin], after)
		n.mu.Unlock()
	}
}

// handleEntries applies one replicated batch in one call, all or nothing. A
// batch whose After frame is above this node's watermark for the origin is
// discarded whole — an earlier batch was lost in transit, and applying this
// one would leave a permanent hole in the stream; the next digest exchange
// re-pulls from the true watermark. Entries at or below the watermark are
// duplicates and skip for free.
func (n *Node) handleEntries(p *peer, msg transport.Message) {
	n.inc(&n.c.BatchesReceived)
	if msg.Origin == "" || msg.Origin == n.self {
		return // malformed, or our own stream echoed back
	}
	if msg.After > n.svc.ReplicationMark(msg.Origin) {
		n.inc(&n.c.BatchesGapped)
		return
	}
	entries := fromWire(msg.Entries)
	for i := range entries {
		entries[i].Origin = msg.Origin // the frame names the stream
	}
	applied, err := n.svc.ApplyReplicated(entries)
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil {
		// Validation or WAL I/O failure: nothing applied. Surface it on the
		// peer record; the stream re-pulls from the watermark.
		p.lastErr = fmt.Sprintf("apply %s past %d: %v", msg.Origin, msg.After, err)
		return
	}
	n.c.EntriesApplied += uint64(applied)
	n.c.EntriesDuplicate += uint64(len(entries) - applied)
}

// toWire and fromWire convert ledger entries to and from their wire form. The
// receiving ledger assigns its own local Seq on append.
func toWire(ents []store.Feedback) []transport.FeedbackEntry {
	out := make([]transport.FeedbackEntry, len(ents))
	for i, fb := range ents {
		out[i] = transport.FeedbackEntry{Origin: fb.Origin, OriginSeq: fb.OriginSeq,
			Rater: fb.Rater, Subject: fb.Subject, Value: fb.Value, UnixNano: fb.UnixNano}
	}
	return out
}

func fromWire(ents []transport.FeedbackEntry) []store.Feedback {
	out := make([]store.Feedback, len(ents))
	for i, e := range ents {
		out[i] = store.Feedback{Origin: e.Origin, OriginSeq: e.OriginSeq,
			Rater: e.Rater, Subject: e.Subject, Value: e.Value, UnixNano: e.UnixNano}
	}
	return out
}
