package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"diffgossip/internal/trust"
)

// This file bounds the ledger's durable and in-memory footprint at unbounded
// traffic. The paper's model needs only the latest rating per (rater,
// subject) cell at fold time, so once an epoch has durably folded past an
// entry, every superseded rating in that cell is dead weight. Compact
// rewrites the WAL keeping just the live subset, and in replication mode
// rebuilds the in-memory per-origin history from the same kept lines: the
// history is the WAL held in memory, so a compacted node serves replication
// pulls exactly as it would after a reopen. Which write of a cell is the
// latest the persisted segments already say: each frozen cell carries the
// trust.Stamp of the write that won it.

// CompactStats reports one WAL compaction: line counts and byte sizes before
// and after the rewrite.
type CompactStats struct {
	EntriesBefore int
	EntriesAfter  int
	BytesBefore   int64
	BytesAfter    int64
}

// compactCrash is a test seam simulating a crash inside Compact. When
// non-nil it runs at each named stage ("tmp-written" — temp file durable,
// not yet renamed; "renamed" — new file published, in-memory handles not yet
// swapped); a non-nil return aborts Compact there. Aborting at "renamed"
// leaves the Ledger's open handle on the unlinked old inode, exactly like a
// process kill at that instant — the test must discard the Ledger and reopen
// from disk, as a restart would.
var compactCrash func(stage string) error

// StampOf derives an entry's last-writer-wins stamp from the (origin,
// origin-seq) pair it replicates under — this ledger's origin id and the Seq
// for a locally accepted entry — so every replica orders it identically. The
// fold (trust.Columns.With) ranks cell rivals by it, and compaction finds a
// cell's winner among them by it.
func (l *Ledger) StampOf(fb Feedback) trust.Stamp {
	fb = l.asReplicated(fb)
	return trust.Stamp{UnixNano: fb.UnixNano, Origin: fb.Origin, Seq: fb.OriginSeq}
}

// compactionKeep marks which entries, in ledger (apply) order, survive
// compaction against segs, the persisted segment of every shard (none:
// nothing is folded). An entry is folded when its seq is at or below its
// shard segment's Seq. Kept are:
//
//   - every unfolded entry (still pending work);
//   - a folded entry whose stamp is the one the segment holds for its cell;
//   - the last folded entry of each origin stream, even when another entry
//     won its cell, so per-origin replication watermarks replay to exactly
//     their pre-compaction values.
//
// Stamps are unique per entry, so the second group is each cell's
// last-writer-wins winner among the folded entries but in one case: an
// install backed a segment's fold point off (or a reshard lowered it) below
// an entry its columns hold, which won a cell. Then the older folded rival
// is dropped; the newer entry is unfolded, kept, and wins every refold.
//
// Dropping a superseded entry is safe cluster-wide: the winner carries its
// own stamp, replicated application tolerates origin-sequence gaps (entries at
// or below the watermark are skipped, entries above are applied), and a peer
// that never sees a loser converges to the same cells as one that did.
func (l *Ledger) compactionKeep(entries []Feedback, segs []*ShardSnapshot) []bool {
	keep := make([]bool, len(entries))
	heads := make(map[string]int)
	for i, fb := range entries {
		if len(segs) == 0 || fb.Seq > segs[ShardOf(fb.Subject, len(segs))].Seq {
			keep[i] = true
			continue
		}
		heads[fb.Origin] = i
		st, _ := segs[ShardOf(fb.Subject, len(segs))].Cols.StampOf(fb.Rater, fb.Subject)
		keep[i] = st == l.StampOf(fb)
	}
	for _, i := range heads {
		keep[i] = true
	}
	return keep
}

// Compact rewrites the backing WAL file keeping only the live subset of
// entries (see compactionKeep), with their original lines — sequence
// numbers, origin tags and timestamps unchanged — so a post-compaction
// replay rebuilds identical in-memory state. The rewrite follows the same
// crash contract as snapshot publication: temp file in the same directory,
// fsync, rename over the ledger path, directory fsync — after a crash the
// path holds either the old file or the compacted one, never a torn mix.
// In replication mode the retained history is rebuilt from the kept lines,
// as EnableReplication seeds it at boot; the pending window and watermarks
// are untouched (every origin's head is kept). segs are the durably
// persisted shard segments, segs[s] for subject shard s of len(segs).
func (l *Ledger) Compact(segs []*ShardSnapshot) (CompactStats, error) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	var st CompactStats
	if l.f == nil {
		return st, fmt.Errorf("store: compact: ledger has no backing file")
	}
	if l.wErr {
		if err := l.resyncLocked(); err != nil {
			return st, err
		}
	}
	if err := l.w.Flush(); err != nil {
		l.wErr = true
		return st, fmt.Errorf("store: flush ledger: %w", err)
	}
	// Read the current contents through a separate handle, so the append
	// handle's file position is untouched on every error path.
	rf, err := os.Open(l.path)
	if err != nil {
		return st, fmt.Errorf("store: compact: %w", err)
	}
	defer rf.Close()
	scratch := &Ledger{n: l.n}
	entries, goodEnd, err := scratch.replay(rf)
	if err != nil {
		return st, fmt.Errorf("store: compact: %w", err)
	}
	st.EntriesBefore = len(entries)
	st.BytesBefore = goodEnd
	keep := l.compactionKeep(entries, segs)
	kept := entries[:0]
	for i := range entries {
		if keep[i] {
			kept = append(kept, entries[i])
		}
	}
	var hist map[string][]Feedback
	if l.hist != nil {
		if _, hist, err = l.replicationState(kept); err != nil {
			return st, fmt.Errorf("store: compact: %w", err)
		}
	}

	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, ".ledger-compact-*.tmp")
	if err != nil {
		return st, fmt.Errorf("store: compact: temp file: %w", err)
	}
	fail := func(err error) (CompactStats, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return st, err
	}
	w := bufio.NewWriter(tmp)
	for i := range kept {
		l.enc = append(AppendFeedback(l.enc[:0], &kept[i]), '\n')
		if _, err := w.Write(l.enc); err != nil {
			return fail(fmt.Errorf("store: compact: write: %w", err))
		}
		st.EntriesAfter++
		st.BytesAfter += int64(len(l.enc))
	}
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("store: compact: flush: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("store: compact: sync: %w", err))
	}
	if compactCrash != nil {
		if err := compactCrash("tmp-written"); err != nil {
			return fail(err)
		}
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return fail(fmt.Errorf("store: compact: publish: %w", err))
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync makes the rename durable; best effort on
		// filesystems that reject it.
		d.Sync()
		d.Close()
	}
	if compactCrash != nil {
		if err := compactCrash("renamed"); err != nil {
			return st, err
		}
	}
	// The temp handle survives the rename (it is the same inode, now at the
	// ledger path) and is positioned at end-of-file, so it simply becomes
	// the append handle — no reopen step that could fail half-swapped.
	old := l.f
	l.f, l.w = tmp, w
	l.goodOff = st.BytesAfter
	l.walLines.Store(int64(st.EntriesAfter))
	if hist != nil {
		l.hist = hist
	}
	l.mCompactions.Inc()
	if d := st.EntriesBefore - st.EntriesAfter; d > 0 {
		l.mCompactDrops.Add(uint64(d))
	}
	if err := old.Close(); err != nil {
		// The swap is complete and consistent; report the stray handle.
		return st, fmt.Errorf("store: compact: close previous ledger handle: %w", err)
	}
	return st, nil
}
