package service

import (
	"fmt"

	"diffgossip/internal/store"
)

// Snapshot-shipped bootstrap: a fresh (or deeply lagging) replica fetches a
// peer's folded shard segments plus the compacted ledger suffix instead of
// replaying whole origin streams entry by entry. The transfer is O(current
// state + unfolded tail), not O(lifetime traffic) — the property that makes
// replica placement free once WAL compaction, which trims the retained
// history with the WAL, bounds the sender's suffix. The cluster layer
// frames a StateTransfer on the wire (transport.KindStateRequest /
// KindState); this file is the service-side assembly and installation.

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
	// Tail are, per origin, the retained entries from the first one past
	// its shard's fold point on, which the receiver enqueues for its next
	// epoch like any replicated entry. The receiver applies Folded before
	// Tail and skips an entry at or below its origin's running mark, so no
	// Folded entry may follow a Tail entry of its origin: one that does
	// ships in Tail and refolds harmlessly.
	Tail []store.Feedback
	// Marks are the sender's per-origin watermarks, captured before the
	// entry lists were read so the lists always cover them. Keyed by origin
	// id — the sender's own stream appears under its id, never "".
	Marks map[string]uint64
}

// BootstrapState assembles a state transfer for a peer whose per-origin
// watermarks are reqMarks (keyed by origin id; nil or empty for a fresh
// replica). Entries a requester already holds — at or below its own marks —
// are not shipped. Requires cluster mode (a configured Origin).
//
// Capture order is load-bearing: segments first, then watermarks, then the
// entry lists. Entries accepted between captures classify against the
// captured fold points (landing in Tail at worst, a harmless refold), and
// marks captured before the lists can never claim coverage of an entry that
// was not shipped.
func (s *Service) BootstrapState(reqMarks map[string]uint64) (*StateTransfer, error) {
	if s.cfg.Origin == "" {
		return nil, fmt.Errorf("service: bootstrap requires cluster mode (an origin id)")
	}
	view := s.View()
	out := &StateTransfer{Segments: view.segs, Marks: s.ledger.OriginMarks()}
	for o := range out.Marks {
		ents := s.ledger.EntriesSince(o, reqMarks[o], 0)
		k := 0
		for k < len(ents) && ents[k].Seq <= view.segs[store.ShardOf(ents[k].Subject, s.shards)].Seq {
			k++
		}
		out.Folded = append(out.Folded, ents[:k]...)
		out.Tail = append(out.Tail, ents[k:]...)
	}
	return out, nil
}

// InstallBootstrap applies a peer's state transfer through the service's
// one install path, under epochMu:
//
//  1. the transfer's own checks: a transfer carrying entries of this node's
//     own origin is refused — re-ingesting our own stream would re-number it
//     and change its LWW stamps (that only arises when a node loses its data
//     directory but keeps its identity; such a node must rejoin under a
//     fresh identity);
//  2. install validates the segments' layout and N and regroups them along
//     this node's shard count, then hands the copies back;
//  3. the re-pend list (repends): entries this node holds past the sender's
//     marks, and the entries behind its published cells that the copies lack
//     or hold older, must refold, or replacing the published columns would
//     silently drop their writes; then the transfer's one ledger call:
//     Folded entries are recorded (WAL, watermarks, history) without
//     entering the pending window — the step that makes bootstrap O(state)
//     instead of O(replay) — and Tail entries are enqueued like any
//     replicated entry, all or nothing, every entry's rating and origin tags
//     checked before any is written;
//  4. the copies are rebased into the local sequence space: the next epoch
//     number, and a fold point at the ledger's end;
//  5. install backs each shard's fold point off below its oldest entry still
//     to fold — the tail, the re-pend list or a locally pending entry — then
//     publishes, persists (ledger fsync first, then segments) with Config.Dir
//     set, and re-pends the list ahead of the pending window.
//
// A refusal at any check changes nothing: views, epoch count, ledger,
// pending window, marks and data directory stay as they were.
func (s *Service) InstallBootstrap(st *StateTransfer) error {
	if s.cfg.Origin == "" {
		return fmt.Errorf("service: bootstrap requires cluster mode (an origin id)")
	}
	if st == nil || len(st.Segments) == 0 {
		return fmt.Errorf("service: bootstrap transfer has no segments")
	}
	for _, list := range [][]store.Feedback{st.Folded, st.Tail} {
		for _, fb := range list {
			if fb.Origin == "" || fb.Origin == s.cfg.Origin {
				return fmt.Errorf("service: bootstrap transfer contains this node's own stream (origin %q) — rejoin with a fresh identity", fb.Origin)
			}
		}
	}

	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.install(st.Segments, nil, func(segs []*store.ShardSnapshot) ([]store.Feedback, error) {
		repend := s.repends(segs, st.Marks)
		if _, err := s.ledger.AppendReplicated(st.Folded, st.Tail); err != nil {
			return nil, fmt.Errorf("service: bootstrap: %w", err)
		}
		epoch, seq := s.epochs.Load()+1, s.ledger.Seq()
		for _, seg := range segs {
			seg.Epoch, seg.Seq = epoch, seq
		}
		return repend, nil
	})
}

// repends returns the entries this node must fold again once segs, a
// transfer's segments regrouped along its shard count, replace its published
// shards: every entry it holds past the sender's marks, which the sender
// never saw, and the entry behind each published cell that segs lack or hold
// with an older stamp — a write this node folded that the sender holds but
// has not folded yet. Such a cell's entry is in the retained history:
// compaction drops only entries whose cell's persisted winner is newer, so
// a published cell never names a dropped entry.
func (s *Service) repends(segs []*store.ShardSnapshot, marks map[string]uint64) []store.Feedback {
	var out []store.Feedback
	for o := range s.ledger.OriginMarks() {
		out = append(out, s.ledger.EntriesSince(o, marks[o], 0)...)
	}
	for sh, seg := range segs {
		cols := s.states[sh].Load().Cols
		for slot := range cols.Subjects() {
			j, raters, _, stamps := cols.ColumnAt(slot)
			for k, i := range raters {
				st := stamps[k]
				theirs, held := seg.Cols.StampOf(i, j)
				if held && !theirs.Before(st) || st.Seq == 0 || st.Seq > marks[st.Origin] {
					continue // segs hold this write or a newer one, it is unstamped, or the loop above has it
				}
				if fb := s.ledger.EntriesSince(st.Origin, st.Seq-1, 1); len(fb) == 1 && fb[0].OriginSeq == st.Seq {
					out = append(out, fb[0])
				}
			}
		}
	}
	return out
}
