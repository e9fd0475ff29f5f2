package store

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"diffgossip/internal/trust"
)

// foldedTo returns the one segment a service persists once it has folded the
// ledger's WAL through seq.
func foldedTo(t *testing.T, l *Ledger, seq uint64) []*ShardSnapshot {
	t.Helper()
	f, err := os.Open(l.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, _, err := (&Ledger{n: l.n}).replay(f)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for k < len(entries) && entries[k].Seq <= seq {
		k++
	}
	return []*ShardSnapshot{foldSegment(t, l, 0, 1, seq, entries[:k])}
}

// compactLedger opens a ledger at path, appends hist-style traffic with heavy
// supersession (each rater re-rates the same few subjects), and returns it.
func compactSeedLedger(t *testing.T, path string, appends int) *Ledger {
	t.Helper()
	l, replayed, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh ledger replayed %d entries", len(replayed))
	}
	for i := 0; i < appends; i++ {
		rater, subject := i%4, (i+1)%4
		if _, err := l.Append(rater, subject, float64(i%10)/10, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestLedgerCompactKeepsLiveSubset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l := compactSeedLedger(t, path, 40)
	seq := l.Seq()
	// Everything is folded: only the 4 distinct (rater, subject) cells
	// survive.
	st, err := l.Compact(foldedTo(t, l, seq))
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesBefore != 40 || st.EntriesAfter != 4 {
		t.Fatalf("compact kept %d of %d entries, want 4 of 40", st.EntriesAfter, st.EntriesBefore)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Fatalf("compact did not shrink the file: %d -> %d bytes", st.BytesBefore, st.BytesAfter)
	}
	// Appends continue on the compacted file with the next seq.
	if got, err := l.Append(5, 6, 0.5, 0); err != nil || got != seq+1 {
		t.Fatalf("append after compact: seq=%d err=%v, want %d", got, err, seq+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted file replays cleanly: sparse seqs, min seq > 1.
	l2, replayed, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(replayed) != 5 {
		t.Fatalf("reopen replayed %d entries, want 5", len(replayed))
	}
	if replayed[0].Seq <= 1 {
		t.Fatalf("compacted file should start past seq 1, got %d", replayed[0].Seq)
	}
	if l2.Seq() != seq+1 {
		t.Fatalf("reopened seq %d, want %d", l2.Seq(), seq+1)
	}
	// The survivors are the latest entry per cell — the LWW winner, since
	// local timestamps here increase with seq.
	wantVal := map[[2]int]float64{}
	for i := 0; i < 40; i++ {
		wantVal[[2]int{i % 4, (i + 1) % 4}] = float64(i%10) / 10
	}
	for _, fb := range replayed[:4] {
		if want := wantVal[[2]int{fb.Rater, fb.Subject}]; fb.Value != want {
			t.Fatalf("cell (%d,%d) kept value %v, want latest %v", fb.Rater, fb.Subject, fb.Value, want)
		}
	}
}

func TestLedgerCompactKeepsUnfoldedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l := compactSeedLedger(t, path, 40)
	defer l.Close()
	// Only the first 30 are folded; the unfolded tail survives verbatim.
	st, err := l.Compact(foldedTo(t, l, 30))
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesAfter != 4+10 {
		t.Fatalf("compact kept %d entries, want 4 cell winners + 10 tail", st.EntriesAfter)
	}
	// No segments: nothing is folded, the rewrite is a no-op subset-wise.
	st, err = l.Compact(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesBefore != st.EntriesAfter {
		t.Fatalf("no-fold compact dropped entries: %d -> %d", st.EntriesBefore, st.EntriesAfter)
	}
}

// TestLedgerCompactKeepsLWWWinnerNotLastAppend pins the conflict rule: the
// kept entry per cell is the fold's LWW winner (timestamp, origin, seq), not
// simply the last-appended line.
func TestLedgerCompactKeepsLWWWinnerNotLastAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.EnableReplication("node-a", nil); err != nil {
		t.Fatal(err)
	}
	// Local write at t=2000 first, then a replicated rival for the same cell
	// with an OLDER timestamp: the local entry stays the LWW winner even
	// though the rival was appended later.
	if _, err := l.Append(1, 2, 0.9, 2000); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendReplicated(nil, []Feedback{{Rater: 1, Subject: 2, Value: 0.1, UnixNano: 1000, Origin: "node-b", OriginSeq: 5}}); err != nil {
		t.Fatal(err)
	}
	seq := l.Seq()
	st, err := l.Compact(foldedTo(t, l, seq))
	if err != nil {
		t.Fatal(err)
	}
	// Both survive — the loser is its origin stream's head, kept so the
	// node-b watermark replays — but the winner must be among them.
	if st.EntriesAfter != 2 {
		t.Fatalf("kept %d entries, want cell winner + stream head", st.EntriesAfter)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var sawWinner bool
	for _, fb := range replayed {
		if fb.Origin == "" && fb.Value == 0.9 {
			sawWinner = true
		}
	}
	if !sawWinner {
		t.Fatalf("LWW winner dropped by compaction: %+v", replayed)
	}
	// Watermarks replay to their pre-compaction values.
	if err := l2.EnableReplication("node-a", replayed); err != nil {
		t.Fatal(err)
	}
	if got := l2.OriginMark("node-b"); got != 5 {
		t.Fatalf("node-b watermark after compacted replay = %d, want 5", got)
	}
}

// TestLedgerCompactCrashPoints kills compaction at each stage of the
// tmp/rename/swap sequence and proves a reboot replays cleanly from whichever
// file the crash left behind, converging to the same entries either way.
func TestLedgerCompactCrashPoints(t *testing.T) {
	defer func() { compactCrash = nil }()
	boom := errors.New("injected crash")

	// Control: what an uncompacted reopen replays, minus the dropped losers.
	mkPath := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		l := compactSeedLedger(t, path, 40)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("before-rename", func(t *testing.T) {
		path := mkPath(t)
		l, _, err := OpenLedger(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		compactCrash = func(stage string) error {
			if stage == "tmp-written" {
				return boom
			}
			return nil
		}
		if _, err := l.Compact(foldedTo(t, l, 40)); !errors.Is(err, boom) {
			t.Fatalf("compact error = %v, want injected crash", err)
		}
		compactCrash = nil
		l.Close()
		// The rename never happened: boot sees the old, full ledger.
		l2, replayed, err := OpenLedger(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(replayed) != 40 || l2.Seq() != 40 {
			t.Fatalf("reopen after pre-rename crash: %d entries seq %d, want the old file intact", len(replayed), l2.Seq())
		}
		// No temp litter survives the abort.
		m, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".ledger-compact-*"))
		if len(m) != 0 {
			t.Fatalf("aborted compaction left temp files: %v", m)
		}
	})

	t.Run("after-rename", func(t *testing.T) {
		path := mkPath(t)
		l, _, err := OpenLedger(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		compactCrash = func(stage string) error {
			if stage == "renamed" {
				return boom
			}
			return nil
		}
		if _, err := l.Compact(foldedTo(t, l, 40)); !errors.Is(err, boom) {
			t.Fatalf("compact error = %v, want injected crash", err)
		}
		compactCrash = nil
		// The crash hit after the rename published the new file: this Ledger
		// object is dead (its handle points at the unlinked old inode, like a
		// killed process's would) — discard it and reboot from disk.
		l.Close()
		l2, replayed, err := OpenLedger(path, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(replayed) != 4 {
			t.Fatalf("reopen after post-rename crash replayed %d entries, want the compacted 4", len(replayed))
		}
		if l2.Seq() != 40 {
			t.Fatalf("reopened seq %d, want 40 (highest surviving seq)", l2.Seq())
		}
		if _, err := l2.Append(5, 6, 0.5, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLedgerAppendRecoversAfterWriteError is the regression test for the
// sticky bufio failure: before the goodOff/resync fix, one failed write or
// flush left the buffered writer permanently errored (and possibly a partial
// line in the file), so every later append failed and a reboot could refuse
// the malformed line. Now the next append truncates back to the last good
// line boundary and proceeds.
func TestLedgerAppendRecoversAfterWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, 2, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	// Simulate the failure: swap in a writer whose sink always fails — the
	// bufio error is sticky exactly like a real transient disk error — and,
	// as a failed flush can, leave a partial line in the backing file.
	l.mu.Lock()
	l.w = bufio.NewWriterSize(failingWriter{}, 1)
	if _, err := l.f.WriteString(`{"seq":2,"ra`); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.mu.Unlock()
	if _, err := l.Append(3, 4, 0.25, 0); err == nil {
		t.Fatal("append through a failing writer should error")
	}
	// The fix: the very next append resyncs (truncate to the last good line,
	// reset the writer onto the file) and succeeds.
	seq, err := l.Append(3, 4, 0.25, 0)
	if err != nil {
		t.Fatalf("append after write error did not recover: %v", err)
	}
	if seq != 2 {
		t.Fatalf("recovered append got seq %d, want 2 (failed attempt must not consume a seq)", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The partial line was truncated away: reboot replays cleanly.
	l2, replayed, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatalf("reopen after recovered write error: %v", err)
	}
	defer l2.Close()
	if len(replayed) != 2 || replayed[1].Rater != 3 {
		t.Fatalf("replayed %+v, want the two good entries", replayed)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("injected write error") }

// TestLedgerCompactTrimsHistory pins the one retention rule: in replication
// mode Compact trims the in-memory per-origin history to the lines it keeps
// in the WAL, for remote streams as for the local one, and leaves the
// watermarks where they were — exactly the history and marks a reopen
// seeds from the compacted file.
func TestLedgerCompactTrimsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.EnableReplication("node-a", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(i%4, (i+1)%4, 0.5, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		fb := Feedback{Rater: 4, Subject: 5, Value: 0.5, UnixNano: int64(2000 + i), Origin: "node-b", OriginSeq: uint64(i + 1)}
		if _, err := l.AppendReplicated(nil, []Feedback{fb}); err != nil {
			t.Fatal(err)
		}
	}
	marks := l.OriginMarks()
	// Folded through seq 25: the local stream keeps its 4 cell winners (its
	// head among them), node-b its folded winner-and-head (origin seq 5)
	// and its unfolded tail 6..10.
	st, err := l.Compact(foldedTo(t, l, 25))
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesBefore != 30 || st.EntriesAfter != 10 {
		t.Fatalf("compact kept %d of %d entries, want 10 of 30", st.EntriesAfter, st.EntriesBefore)
	}
	for origin, want := range map[string][]uint64{"node-a": {17, 18, 19, 20}, "node-b": {5, 6, 7, 8, 9, 10}} {
		var got []uint64
		for _, fb := range l.EntriesSince(origin, 0, 0) {
			got = append(got, fb.OriginSeq)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s history after compaction: origin seqs %v, want %v", origin, got, want)
		}
	}
	if got := l.OriginMarks(); !reflect.DeepEqual(got, marks) {
		t.Fatalf("compaction moved the watermarks: %v, want %v", got, marks)
	}
	// Pull answers past a dropped entry still work.
	if ents := l.EntriesSince("node-b", 2, 1); len(ents) != 1 || ents[0].OriginSeq != 5 {
		t.Fatalf("EntriesSince past a dropped entry: %+v", ents)
	}

	reopened, replayed, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if err := reopened.EnableReplication("node-a", replayed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reopened.OriginMarks(), marks) {
		t.Fatalf("reopened marks %v, want %v", reopened.OriginMarks(), marks)
	}
	for origin := range marks {
		if live, again := l.EntriesSince(origin, 0, 0), reopened.EntriesSince(origin, 0, 0); !reflect.DeepEqual(live, again) {
			t.Fatalf("%s history: compacted node holds %+v, reopened node %+v", origin, live, again)
		}
	}
}

// TestLedgerCompactConcurrentAppends races Compact against live appends (the
// race job runs this under -race): compaction must neither lose nor duplicate
// entries, and the post-compaction file must replay cleanly.
func TestLedgerCompactConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l := compactSeedLedger(t, path, 20)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := l.Append(i%8, (i+3)%8, 0.5, int64(5000+i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		if _, err := l.Compact(foldedTo(t, l, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	before := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, replayed, err := OpenLedger(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Seq() != before {
		t.Fatalf("reopened seq %d, want %d", l2.Seq(), before)
	}
	// Every entry past the fold point survived every rewrite.
	unfolded := 0
	for _, fb := range replayed {
		if fb.Seq > 20 {
			unfolded++
		}
	}
	if unfolded != 50 {
		t.Fatalf("%d unfolded entries survived, want all 50", unfolded)
	}
}

// TestCompactionKeepTieBreak pins the tie rule: of two local entries that tie
// on timestamp the fold keeps the later one (by seq), and compaction keeps the
// entry the segment names. The third entry, another cell's, is the stream's
// head, so the head rule cannot hide a wrong pick.
func TestCompactionKeepTieBreak(t *testing.T) {
	l := NewLedger(8)
	entries := []Feedback{
		{Seq: 1, Rater: 1, Subject: 2, Value: 0.1, UnixNano: 100},
		{Seq: 2, Rater: 1, Subject: 2, Value: 0.9, UnixNano: 100},
		{Seq: 3, Rater: 3, Subject: 4, Value: 0.5, UnixNano: 50},
	}
	seg := foldSegment(t, l, 0, 1, 3, entries)
	if keep := l.compactionKeep(entries, []*ShardSnapshot{seg}); !reflect.DeepEqual(keep, []bool{false, true, true}) {
		t.Fatalf("keep = %v, want the later local entry and the head", keep)
	}
}

// foldSegment returns shard's segment of shards, its fold point seq, its
// cells folded from those of entries that fall in the shard, by the ledger's
// stamps.
func foldSegment(t *testing.T, l *Ledger, shard, shards int, seq uint64, entries []Feedback) *ShardSnapshot {
	t.Helper()
	var cells []trust.Cell
	for _, fb := range entries {
		if ShardOf(fb.Subject, shards) == shard {
			cells = append(cells, trust.Cell{Rater: fb.Rater, Subject: fb.Subject, Value: fb.Value, Stamp: l.StampOf(fb)})
		}
	}
	seg := NewBootShardSnapshot(l.n, shard, shards, 0)
	var err error
	if seg.Cols, _, err = seg.Cols.With(cells); err != nil {
		t.Fatal(err)
	}
	seg.Seq = seq
	return seg
}

// referenceCompactionKeep is the keep rule compaction had before it read the
// persisted segments: a map over every folded entry, keyed by cell, finds
// each cell's winner by stamp (ties to the later entry, as the fold settles
// them), and every unfolded entry and each origin's last folded entry are
// kept too. FuzzCompactionKeep holds compactionKeep to it.
func referenceCompactionKeep(l *Ledger, entries []Feedback, folded func(Feedback) bool) []bool {
	keep := make([]bool, len(entries))
	type win struct {
		i int
		t trust.Stamp
	}
	winners := make(map[uint64]win)
	heads := make(map[string]int)
	for i, fb := range entries {
		if !folded(fb) {
			keep[i] = true
			continue
		}
		heads[fb.Origin] = i
		cell := uint64(fb.Rater)*uint64(l.n) + uint64(fb.Subject)
		t := l.StampOf(fb)
		if w, ok := winners[cell]; !ok || !t.Before(w.t) {
			winners[cell] = win{i: i, t: t}
		}
	}
	for _, w := range winners {
		keep[w.i] = true
	}
	for _, i := range heads {
		keep[i] = true
	}
	return keep
}

// FuzzCompactionKeep is the differential test of compaction's keep rule:
// over generated histories and persisted segments, compactionKeep must keep
// exactly what referenceCompactionKeep keeps, but for the case its comment
// names. A segment's columns may hold entries above its fold point — an
// install backs the fold point off below an entry still to fold, a reshard
// lowers it — and where such an entry won a cell, compactionKeep drops the
// cell's older folded rivals, which the reference keeps; the newer entry is
// unfolded, so both keep it.
//
// The header is three bytes: bit 0 of the first picks a replicating ledger
// (origin node-a), the second N ∈ [2,9], the third the shard count
// S ∈ [1,3]; then one byte per shard, its fold point mod the entry count + 1.
// Every further four bytes are one entry, its seq its position: rater,
// subject, a byte whose low three bits are the timestamp 1..8 and whose next
// two pick the origin (local, or with replication node-b or node-c, their
// origin seqs counting up), and a byte whose bit 0 folds the entry into its
// shard's segment when it lies above the fold point.
func FuzzCompactionKeep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &byteProgram{data: data}
		replicate := p.next()&1 == 1
		n := 2 + p.next()%8
		shards := 1 + p.next()%3
		foldBytes := make([]int, shards)
		for s := range foldBytes {
			foldBytes[s] = p.next()
		}
		l := NewLedger(n)
		if replicate {
			if err := l.EnableReplication("node-a", nil); err != nil {
				t.Fatal(err)
			}
		}
		var entries []Feedback
		var ahead []bool // fold the entry even above its fold point
		originSeq := map[string]uint64{}
		for len(entries) < 64 && p.at < len(p.data) {
			fb := Feedback{Seq: uint64(len(entries) + 1), Rater: p.next() % n, Subject: p.next() % n, Value: 0.5}
			b := p.next()
			fb.UnixNano = int64(1 + b&7)
			if o := (b >> 3) % 3; replicate && o > 0 {
				fb.Origin = []string{"node-b", "node-c"}[o-1]
				originSeq[fb.Origin]++
				fb.OriginSeq = originSeq[fb.Origin]
			}
			entries = append(entries, fb)
			ahead = append(ahead, p.next()&1 == 1)
		}
		segs := make([]*ShardSnapshot, shards)
		for s := range segs {
			seq := uint64(foldBytes[s] % (len(entries) + 1))
			var in []Feedback
			for i, fb := range entries {
				if fb.Seq <= seq || ahead[i] {
					in = append(in, fb)
				}
			}
			segs[s] = foldSegment(t, l, s, shards, seq, in)
		}

		got := l.compactionKeep(entries, segs)
		want := referenceCompactionKeep(l, entries, func(fb Feedback) bool {
			return fb.Seq <= segs[ShardOf(fb.Subject, shards)].Seq
		})
		for i, fb := range entries {
			if got[i] == want[i] {
				continue
			}
			seg := segs[ShardOf(fb.Subject, shards)]
			cell, _ := seg.Cols.StampOf(fb.Rater, fb.Subject)
			backedOff := want[i] && l.StampOf(fb).Before(cell) && slices.ContainsFunc(entries, func(e Feedback) bool {
				return e.Seq > seg.Seq && l.StampOf(e) == cell
			})
			if !backedOff {
				t.Fatalf("entry %d %+v (segment fold point %d, cell stamp %+v): kept %v, reference %v",
					i, fb, seg.Seq, cell, got[i], want[i])
			}
		}
	})
}

// byteProgram reads a fuzz input as a stream of bytes; reads past the end
// yield 0.
type byteProgram struct {
	data []byte
	at   int
}

func (p *byteProgram) next() int {
	if p.at >= len(p.data) {
		return 0
	}
	p.at++
	return int(p.data[p.at-1])
}
