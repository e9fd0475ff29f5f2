package service

import (
	"fmt"

	"diffgossip/internal/store"
)

// Snapshot-shipped bootstrap: a fresh (or deeply lagging) replica fetches a
// peer's folded shard segments plus the compacted ledger suffix instead of
// replaying whole origin streams entry by entry. The transfer is O(current
// state + unfolded tail), not O(lifetime traffic) — the property that makes
// replica placement free once WAL compaction and history trimming bound the
// sender's retained suffix. The cluster layer frames a StateTransfer on the
// wire (transport.KindStateRequest / KindState); this file is the
// service-side assembly and installation.

// StateTransfer is the materialised payload of a snapshot-shipped bootstrap.
type StateTransfer struct {
	// Segments are the sender's published shard snapshots, captured before
	// the entry lists so every shipped entry is classifiable against their
	// fold points.
	Segments []*store.ShardSnapshot
	// Folded are retained ledger entries whose folds Segments already
	// reflect, stamps included: the receiver records them — WAL, watermarks,
	// history — without re-queueing them for a fold. Every entry carries its
	// origin id (the sender's ledger returns its own entries stamped).
	Folded []store.Feedback
	// Tail are retained entries past the segments' fold points, which the
	// receiver enqueues for its next epoch like any replicated entry.
	Tail []store.Feedback
	// Marks are the sender's per-origin watermarks, captured before the
	// entry lists were read so the lists always cover them. Keyed by origin
	// id — the sender's own stream appears under its id, never "".
	Marks map[string]uint64
}

// BootstrapState assembles a state transfer for a peer whose per-origin
// watermarks are reqMarks (keyed by origin id; nil or empty for a fresh
// replica). Entries a requester already holds — at or below its own marks —
// are not shipped. Requires Config.Replicate and a configured Origin.
//
// Capture order is load-bearing: segments first, then watermarks, then the
// entry lists. Entries accepted between captures classify against the
// captured fold points (landing in Tail at worst, a harmless refold), and
// marks captured before the lists can never claim coverage of an entry that
// was not shipped.
func (s *Service) BootstrapState(reqMarks map[string]uint64) (*StateTransfer, error) {
	if !s.cfg.Replicate || s.cfg.Origin == "" {
		return nil, fmt.Errorf("service: bootstrap requires replication mode with an origin id")
	}
	view := s.View()
	out := &StateTransfer{Segments: view.segs, Marks: s.ledger.OriginMarks()}
	for o := range out.Marks {
		for _, fb := range s.ledger.EntriesSince(o, reqMarks[o], 0) {
			if fb.Seq <= view.segs[store.ShardOf(fb.Subject, s.shards)].Seq {
				out.Folded = append(out.Folded, fb)
			} else {
				out.Tail = append(out.Tail, fb)
			}
		}
	}
	return out, nil
}

// InstallBootstrap applies a peer's state transfer: folded entries are
// recorded (WAL, watermarks, history) without re-queueing them,
// the shipped segments are rebased into the local sequence space and
// published, tail entries are enqueued like ordinary replicated entries, and
// any locally retained entries the sender's transfer did not cover are
// re-queued so their folds are not lost. An installed segment never claims a
// fold point at or above an entry of its shard that is still unfolded here —
// re-queued, or pulled earlier and still pending — so a restart before the
// next epoch re-pends it. With persistence on, the ledger is fsynced before
// the installed segments are saved — the same WAL-covers-segments invariant
// the boot guard checks.
//
// A transfer containing entries of this node's own origin is refused:
// re-ingesting our own stream would re-number it and change its LWW stamps.
// (That only arises when a node loses its data directory but keeps its
// identity; such a node must rejoin under a fresh identity.)
func (s *Service) InstallBootstrap(st *StateTransfer) error {
	if !s.cfg.Replicate || s.cfg.Origin == "" {
		return fmt.Errorf("service: bootstrap requires replication mode with an origin id")
	}
	if st == nil || len(st.Segments) == 0 {
		return fmt.Errorf("service: bootstrap transfer has no segments")
	}
	for i, seg := range st.Segments {
		if seg == nil {
			return fmt.Errorf("service: bootstrap transfer segment %d missing", i)
		}
		if seg.N != s.n {
			return fmt.Errorf("service: bootstrap transfer is for N=%d, this service has N=%d", seg.N, s.n)
		}
		if seg.Shard != i || seg.Shards != len(st.Segments) {
			return fmt.Errorf("service: bootstrap transfer segment %d does not fit the layout (shard %d/%d)", i, seg.Shard, seg.Shards)
		}
	}
	for _, list := range [][]store.Feedback{st.Folded, st.Tail} {
		for _, fb := range list {
			if fb.Origin == "" || fb.Origin == s.cfg.Origin {
				return fmt.Errorf("service: bootstrap transfer contains this node's own stream (origin %q) — rejoin with a fresh identity", fb.Origin)
			}
		}
	}
	// The transfer's segments are the sender's live publications when the
	// hand-off is in-process, so the rebase below must write into copies.
	var segs []*store.ShardSnapshot
	if len(st.Segments) != s.shards {
		// The sender runs a different shard layout; regroup along ours.
		var err error
		if segs, err = store.Reshard(st.Segments, s.shards); err != nil {
			return fmt.Errorf("service: bootstrap: %w", err)
		}
	} else {
		segs = make([]*store.ShardSnapshot, s.shards)
		for sh, seg := range st.Segments {
			cp := *seg
			segs[sh] = &cp
		}
	}

	s.epochMu.Lock()
	defer s.epochMu.Unlock()

	// 1. Record the folded entries. Their folds arrive with the segments, so
	// they bypass the pending window entirely — the step that makes
	// bootstrap O(state) instead of O(replay).
	if _, err := s.ledger.AppendReplicated(st.Folded, false); err != nil {
		return fmt.Errorf("service: bootstrap: %w", err)
	}
	// rebased is the local fold point the installed segments may claim:
	// every local ledger entry at or below it is recorded above, on the
	// re-pend list computed next, or still pending (step 3 backs off for both).
	rebased := s.ledger.Seq()

	// 2. Anything we retain past the sender's shipped coverage — entries the
	// sender had never seen when it captured its marks — must refold, or
	// replacing the published columns below would silently drop their writes.
	var repend []store.Feedback
	for o := range s.ledger.OriginMarks() {
		repend = append(repend, s.ledger.EntriesSince(o, st.Marks[o], 0)...)
	}

	// 3. Rebase and publish the segments. A shard's claimed fold point backs
	// off below its oldest unfolded entry — re-pended above or pending here
	// already — so a crash before the refold persists still re-pends that
	// entry at next boot. An entry this node pulled itself while the transfer
	// was in flight is covered by the sender's marks, so it is in no list
	// above, yet it may sit in the sender's unfolded tail: the shipped
	// columns cannot be assumed to hold it. (The window is read by taking and
	// restoring it: epochMu keeps epochs out, and an entry appended meanwhile
	// carries a seq above rebased.)
	local := s.ledger.TakePending()
	s.ledger.Restore(local)
	segSeq := make([]uint64, s.shards)
	for sh := range segSeq {
		segSeq[sh] = rebased
	}
	for _, unfolded := range [][]store.Feedback{repend, local} {
		for _, fb := range unfolded {
			sh := store.ShardOf(fb.Subject, s.shards)
			if fb.Seq > 0 && fb.Seq-1 < segSeq[sh] {
				segSeq[sh] = fb.Seq - 1
			}
		}
	}
	epoch := s.epochs.Load() + 1
	for sh, seg := range segs {
		seg.Epoch = epoch
		seg.Seq = segSeq[sh]
		s.states[sh].Store(seg)
	}
	s.epochs.Store(epoch)

	// 4. Tail entries fold at the next epoch, like any replicated entry.
	if _, err := s.ledger.AppendReplicated(st.Tail, true); err != nil {
		return fmt.Errorf("service: bootstrap: %w", err)
	}
	// 5. Re-pend ahead of the tail (Restore prepends): these entries are
	// older, and LWW folding makes any interleaving converge identically.
	s.ledger.Restore(repend)

	// 6. Durability, same invariant as the epoch persistence phase: ledger
	// first, then segments.
	if s.cfg.Dir != "" {
		s.persistMu.Lock()
		defer s.persistMu.Unlock()
		if err := s.ledger.Sync(); err != nil {
			return err
		}
		for sh, seg := range segs {
			if err := seg.SaveFile(shardPath(s.cfg.Dir, sh)); err != nil {
				return err
			}
			s.persistedEpoch[sh] = seg.Epoch
			s.persistedSeq[sh] = seg.Seq
		}
	}
	return nil
}
