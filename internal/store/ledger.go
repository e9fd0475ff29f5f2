// Package store is the persistence substrate of the reputation service: an
// append-only feedback ledger (the write path) and immutable per-shard
// reputation snapshots (the read path).
//
// The two halves meet only at epoch boundaries. Feedback accumulates in the
// ledger — and, when a data directory is configured, in a JSON-lines
// write-ahead file — until the epoch scheduler (internal/service) folds the
// pending batch into the dirty shards' trust columns, recomputes their
// reputations by gossip, and publishes a new ShardSnapshot per dirty shard.
// A ShardSnapshot is frozen at construction and never mutated afterwards, so
// readers may share one across goroutines without locks; each segment is one
// flat checksummed record written by atomic rename, so a crash leaves either
// the old segment or the new one, never a torn file.
//
// Every WAL line is written and read by the one Feedback codec in codec.go,
// with encoding/json behind it: the file format is what it always was.
//
// Replication is the ledger's own concern too. Every entry belongs to one
// origin stream and is identified by (origin, origin-seq); once
// EnableReplication names the ledger's origin id, every replication read and
// write — watermarks, pulls, history trims, replicated batches, LWW stamps —
// speaks origin ids, the ledger's own stream under its own. Only the WAL and
// the pending window spell a locally accepted entry without origin tags.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diffgossip/internal/obs"
)

// ErrInvalidFeedback marks feedback rejected by validation (out-of-range ids
// or values) as opposed to I/O failures; callers use errors.Is to map the
// two classes to different outcomes (e.g. HTTP 400 vs 500).
var ErrInvalidFeedback = errors.New("invalid feedback")

// Feedback is one direct-interaction rating: "Rater now places trust Value in
// Subject". When the next epoch folds it, t[Rater][Subject] = Value; the
// latest entry per (rater, subject) pair wins, matching trust.Matrix.Set
// semantics. Estimating Value from raw transaction outcomes is the caller's
// concern (see trust.Estimator) — the ledger stores the estimate.
type Feedback struct {
	// Seq is the ledger-assigned sequence number, strictly increasing from 1.
	Seq uint64 `json:"seq"`
	// Rater and Subject are node ids in [0, N).
	Rater   int `json:"rater"`
	Subject int `json:"subject"`
	// Value is the direct trust t_ij ∈ [0,1].
	Value float64 `json:"value"`
	// UnixNano is the ingest wall-clock time (0 when unknown, e.g. entries
	// replayed from ledgers written by older builds).
	UnixNano int64 `json:"unix_nano,omitempty"`
	// Origin is the cluster node id that first accepted this entry and
	// OriginSeq the sequence number the origin's own ledger assigned; the
	// pair globally identifies the entry, which is what makes replicated
	// application idempotent. In the WAL and the pending window an entry
	// this ledger accepted itself leaves both empty (the standalone format);
	// the ledger's replication reads return it stamped with the ledger's
	// origin id and its Seq (see EnableReplication).
	Origin    string `json:"origin,omitempty"`
	OriginSeq uint64 `json:"origin_seq,omitempty"`
	// Shard is the subject shard this entry belongs to under the ledger's
	// configured shard count, stamped by TakePending for the epoch
	// scheduler. It is derived state (Subject mod shards), never persisted:
	// the shard count may change across restarts.
	Shard int `json:"-"`
}

// ShardOf maps a subject to its shard under S subject shards. Modulo
// placement spreads id-adjacent hot subjects across shards; every layer
// (ledger dirty tracking, segment files, the composite read view) uses this
// one function so the partition can never skew.
func ShardOf(subject, shards int) int {
	if shards <= 1 {
		return 0
	}
	return subject % shards
}

// ShardSubjects returns shard's subjects — ascending ids congruent to shard
// mod shards — over an N-node id space.
func ShardSubjects(n, shard, shards int) []int {
	if shards <= 1 {
		shard, shards = 0, 1
	}
	out := make([]int, 0, (n-shard+shards-1)/shards)
	for j := shard; j < n; j += shards {
		out = append(out, j)
	}
	return out
}

// SlotOf maps a subject to its position inside its shard's subject list.
func SlotOf(subject, shards int) int {
	if shards <= 1 {
		return subject
	}
	return subject / shards
}

// maxEncCap bounds the WAL encode buffer a ledger keeps between appends.
// It lies above any HTTP batch (4,096 entries at about 90 B each) and any
// replication batch, so those keep reusing the buffer; a larger append, such
// as a bootstrap install, drops it once written instead of holding its
// capacity for the ledger's lifetime.
const maxEncCap = 1 << 20

// Ledger is the append-only feedback log. Appends are cheap and concurrent
// (one short mutex hold, no epoch work on the ingest path); the epoch
// scheduler drains the pending window with TakePending. With a backing file
// every append is also written as one JSON line, so the full feedback history
// survives restarts and stays greppable.
type Ledger struct {
	n int

	mu      sync.Mutex
	seq     uint64
	pending []Feedback
	path    string
	f       *os.File
	w       *bufio.Writer

	// goodOff is the byte offset just past the last fully flushed WAL line.
	// wErr records that a write or flush failed, which may have left a
	// partial line in the file; before the next write the ledger resyncs by
	// truncating back to goodOff, so one transient I/O error can never
	// produce a malformed complete line that bricks replay at next boot.
	goodOff int64
	wErr    bool
	enc     []byte // reusable buffer WAL lines are encoded into; guarded by mu

	// syncMu serialises fsync without holding mu, so a slow disk never
	// blocks Append (see Sync).
	syncMu sync.Mutex

	// Shard-aware pending accounting. shards is fixed by SetShards before
	// concurrent use; dirty[s] reports whether shard s has pending entries.
	// The flags and counters are atomics updated under mu, so the stats
	// path reads them lock-free while writers stay serialised.
	shards     int
	dirty      []atomic.Bool
	dirtyCount atomic.Int64
	pendingN   atomic.Int64
	walLines   atomic.Int64 // entries in the WAL file: set by replay and Compact, advanced by appends

	// Replication state, set by EnableReplication. origin is this ledger's
	// cluster id ("" standalone); it is fixed before concurrent use and read
	// without mu. marks holds the highest OriginSeq per origin stream, this
	// ledger's own included, and hist holds the WAL's entries per origin,
	// stamped as they replicate (Compact trims both alike), so anti-entropy
	// pulls are answered from memory instead of re-reading the WAL. Both
	// nil until then and guarded by mu.
	origin string
	marks  map[string]uint64
	hist   map[string][]Feedback

	// Observability instruments (see Instrument). The counters are plain
	// atomics maintained on every append/sync regardless of registration;
	// the fsync histogram is created only when Instrument runs, behind an
	// atomic pointer so Sync can read it without a lock.
	mEntries      obs.Counter
	mWALAppends   obs.Counter
	mFsyncs       obs.Counter
	mFsyncHist    atomic.Pointer[obs.Histogram]
	mCompactions  obs.Counter
	mCompactDrops obs.Counter
}

// NewLedger returns a memory-only ledger over n nodes with a single shard.
func NewLedger(n int) *Ledger {
	l := &Ledger{n: n}
	l.initShards(1)
	return l
}

func (l *Ledger) initShards(s int) {
	l.shards = s
	l.dirty = make([]atomic.Bool, s)
}

// SetShards configures the subject-shard count the ledger tracks dirtiness
// at. It must be called before concurrent use (the service sets it at
// boot); the dirty set is recomputed from whatever is pending.
func (l *Ledger) SetShards(s int) error {
	if s < 1 {
		return fmt.Errorf("store: shard count %d must be >= 1", s)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.initShards(s)
	l.dirtyCount.Store(0)
	for i := range l.pending {
		l.pending[i].Shard = ShardOf(l.pending[i].Subject, s)
		l.markDirtyLocked(l.pending[i].Shard)
	}
	return nil
}

// markDirtyLocked flags a shard as having pending feedback; callers hold mu.
func (l *Ledger) markDirtyLocked(shard int) {
	if !l.dirty[shard].Swap(true) {
		l.dirtyCount.Add(1)
	}
}

// Shards returns the configured subject-shard count.
func (l *Ledger) Shards() int { return l.shards }

// ShardDirty reports, lock-free, whether shard s has pending feedback.
func (l *Ledger) ShardDirty(s int) bool {
	if s < 0 || s >= len(l.dirty) {
		return false
	}
	return l.dirty[s].Load()
}

// DirtyCount returns, lock-free, the number of shards with pending feedback.
func (l *Ledger) DirtyCount() int { return int(l.dirtyCount.Load()) }

// OpenLedger opens (creating if absent) the JSON-lines ledger file at path
// and replays every existing entry, returning them in append order so the
// caller can decide which are already reflected in their subject's loaded
// segment (Seq ≤ ShardSnapshot.Seq) and which are still pending. Subsequent
// appends go to both memory and the file.
func OpenLedger(path string, n int) (*Ledger, []Feedback, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open ledger: %w", err)
	}
	l := &Ledger{n: n, f: f, path: path}
	l.initShards(1)
	replayed, goodEnd, err := l.replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// A torn final line (crash or failed flush mid-append) is cut off so the
	// next append starts on a clean line boundary.
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncate torn ledger tail: %w", err)
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seek ledger: %w", err)
	}
	l.w = bufio.NewWriter(f)
	l.goodOff = goodEnd
	l.walLines.Store(int64(len(replayed)))
	return l, replayed, nil
}

// replay reads the whole file, validating every line, and returns the byte
// offset just past the last good line. Sequence numbers must be strictly
// increasing — but need not be dense and need not start at 1: a compacted
// file (see Compact) keeps an arbitrary subsequence of the original lines
// with their original seqs, so gaps and a min seq > 1 are valid. The ledger
// resumes after the highest one seen. An
// unterminated final line is the crash artifact of an append that never
// completed (Append flushes a full line per entry, so nothing else can tear)
// and is silently dropped; any malformed *complete* line is real corruption
// and fails hard. json.Unmarshal decodes the lines ScanFeedback does not
// take (an escaped origin id, a hand-edited file) and words every error.
func (l *Ledger) replay(r io.Reader) ([]Feedback, int64, error) {
	var out []Feedback
	var goodEnd int64
	br := bufio.NewReader(r)
	line := 0
	for {
		b, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, 0, fmt.Errorf("store: read ledger: %w", err)
		}
		if err == io.EOF {
			// len(b) > 0 here means an unterminated torn tail: the caller
			// truncates it away via the returned goodEnd.
			return out, goodEnd, nil
		}
		line++
		trimmed := b[:len(b)-1]
		if len(trimmed) == 0 {
			goodEnd += int64(len(b))
			continue
		}
		var fb Feedback
		if !ScanFeedback(trimmed, WALKeys, &fb) {
			if err := json.Unmarshal(trimmed, &fb); err != nil {
				return nil, 0, fmt.Errorf("store: ledger line %d: %w", line, err)
			}
		}
		if err := l.check(fb.Rater, fb.Subject, fb.Value); err != nil {
			return nil, 0, fmt.Errorf("store: ledger line %d: %w", line, err)
		}
		if fb.Seq <= l.seq {
			return nil, 0, fmt.Errorf("store: ledger line %d: seq %d not increasing (after %d)", line, fb.Seq, l.seq)
		}
		l.seq = fb.Seq
		out = append(out, fb)
		goodEnd += int64(len(b))
	}
}

func (l *Ledger) check(rater, subject int, value float64) error {
	if rater < 0 || rater >= l.n || subject < 0 || subject >= l.n {
		return fmt.Errorf("store: feedback (%d,%d) out of range [0,%d): %w", rater, subject, l.n, ErrInvalidFeedback)
	}
	if value < 0 || value > 1 || math.IsNaN(value) {
		return fmt.Errorf("store: feedback value %v out of [0,1]: %w", value, ErrInvalidFeedback)
	}
	return nil
}

// Append validates and records one feedback entry, returning its sequence
// number. unixNano is the ingest timestamp (pass 0 to omit). An error means
// the entry was NOT recorded: the write-ahead line is durably written (and
// flushed) before any in-memory state changes, so a failed append leaves
// both the file and the pending window exactly as they were — a client told
// "rejected" can never have its rating silently take effect later. The line
// is encoded into the ledger's own buffer: a steady-state append allocates
// nothing, WAL or not.
func (l *Ledger) Append(rater, subject int, value float64, unixNano int64) (uint64, error) {
	if err := l.check(rater, subject, value); err != nil {
		return 0, err
	}
	one := [1]Feedback{{Rater: rater, Subject: subject, Value: value, UnixNano: unixNano}}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(one[:], 0); err != nil {
		return 0, err
	}
	return one[0].Seq, nil
}

// appendLocked is the one append core: it assigns the entries consecutive
// local sequence numbers, encodes their WAL lines into the ledger's buffer
// and writes them as one unit, then admits them — entries[unqueued:] to the
// pending window and dirty set, and in replication mode all of them to the
// retained history and watermarks. The first unqueued entries are ones whose
// fold is already reflected in state installed alongside them (a bootstrap
// state transfer). Callers hold mu and have validated the entries; Seq and
// Shard are filled in place, and on error nothing — file or memory — has
// changed.
func (l *Ledger) appendLocked(entries []Feedback, unqueued int) error {
	if len(entries) == 0 {
		return nil
	}
	if l.seq > math.MaxUint64-uint64(len(entries)) {
		// Replaying a hostile ledger can leave seq at the top of its range;
		// wrapping to 0 would durably write an entry that poisons every
		// future replay (seq must be strictly increasing), so refuse.
		return fmt.Errorf("store: ledger sequence space exhausted")
	}
	for i := range entries {
		entries[i].Seq = l.seq + 1 + uint64(i)
		entries[i].Shard = ShardOf(entries[i].Subject, l.shards)
	}
	if l.w != nil {
		l.enc = appendFeedbackLines(l.enc[:0], entries)
		err := l.writeWALLocked(l.enc)
		if cap(l.enc) > maxEncCap {
			l.enc = nil // a bulk append's buffer does not outlive it
		}
		if err != nil {
			return err
		}
		l.mWALAppends.Add(uint64(len(entries)))
		l.walLines.Add(int64(len(entries)))
	}
	l.seq += uint64(len(entries))
	l.mEntries.Add(uint64(len(entries)))
	if queued := entries[unqueued:]; len(queued) > 0 {
		if need := len(l.pending) + len(queued); need > cap(l.pending) {
			// Whole doublings: append's 1.25× steps past 256 entries would
			// copy (and zero) a filling window about five times over.
			grown := make([]Feedback, len(l.pending), max(need, 2*cap(l.pending)))
			copy(grown, l.pending)
			l.pending = grown
		}
		l.pending = append(l.pending, queued...)
		l.pendingN.Store(int64(len(l.pending)))
		for i := range queued {
			l.markDirtyLocked(queued[i].Shard)
		}
	}
	if l.hist != nil {
		for _, fb := range entries {
			fb = l.asReplicated(fb)
			l.hist[fb.Origin] = append(l.hist[fb.Origin], fb)
			l.marks[fb.Origin] = fb.OriginSeq
		}
	}
	return nil
}

// asReplicated returns fb as it replicates: an entry this ledger accepted
// itself (no origin tags — the WAL spelling) is stamped with the ledger's
// origin id and its Seq.
func (l *Ledger) asReplicated(fb Feedback) Feedback {
	if fb.Origin == "" {
		fb.Origin, fb.OriginSeq = l.origin, fb.Seq
	}
	return fb
}

// AppendBatch validates and records a batch of locally-submitted feedback
// entries atomically, returning the first and last assigned sequence numbers.
// The batch is all-or-nothing: every entry is validated before anything is
// written, the WAL lines are encoded into the ledger's buffer and written
// as one unit (writeWALLocked; TestLedgerAppendBatchOneWrite), and only after
// the flush succeeds does any in-memory state (seq, pending window, dirty
// set, replication history) change — a batch that fails before its flush
// leaves the ledger exactly as it was, with any partial bytes truncated away
// before the next write. Only the terminal fsync can fail after admission; an
// error from it means the entries will fold but their durability barrier did
// not complete, so callers should report the batch as failed (re-submitting
// identical ratings is idempotent at the trust layer — same cells, same LWW
// coordinates).
//
// Durability is the batch's whole point: where Append flushes each entry to
// the OS (fsync deferred to the epoch boundary), AppendBatch finishes with
// ONE fsync for the entire batch — thousands of ratings amortize a single
// disk barrier, and a 202 for the batch means every entry in it is on disk.
// Entries must be local (no Origin tags); replicated batches go through
// AppendReplicated.
func (l *Ledger) AppendBatch(entries []Feedback) (first, last uint64, err error) {
	if len(entries) == 0 {
		return 0, 0, fmt.Errorf("store: empty batch: %w", ErrInvalidFeedback)
	}
	for i := range entries {
		if entries[i].Origin != "" || entries[i].OriginSeq != 0 {
			return 0, 0, fmt.Errorf("store: batch entry %d carries origin tags; batches are local-only", i)
		}
		if err := l.check(entries[i].Rater, entries[i].Subject, entries[i].Value); err != nil {
			return 0, 0, fmt.Errorf("store: batch entry %d: %w", i, err)
		}
	}
	l.mu.Lock()
	err = l.appendLocked(entries, 0)
	l.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	// The one amortized disk barrier; Sync takes its own mutex, so a slow
	// disk stalls only other syncers, never concurrent appends.
	if err := l.Sync(); err != nil {
		return 0, 0, err
	}
	return entries[0].Seq, entries[len(entries)-1].Seq, nil
}

// writeWALLocked writes whole encoded lines and flushes them to the OS. The
// writer is empty between appends, so a batch larger than its buffer is one
// write(2). After a failure wErr makes the next write truncate back to goodOff.
func (l *Ledger) writeWALLocked(lines []byte) error {
	if l.wErr {
		if err := l.resyncLocked(); err != nil {
			return err
		}
	}
	if _, err := l.w.Write(lines); err != nil {
		l.wErr = true
		return fmt.Errorf("store: write ledger: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		l.wErr = true
		return fmt.Errorf("store: flush ledger: %w", err)
	}
	l.goodOff += int64(len(lines))
	return nil
}

// resyncLocked recovers the WAL after a failed write or flush: a bufio error
// is sticky and the failed attempt may have pushed a partial line into the
// file, so the ledger truncates back to the last known line boundary and
// resets the writer before anything else is written. Callers hold mu.
func (l *Ledger) resyncLocked() error {
	if _, err := l.f.Seek(l.goodOff, io.SeekStart); err != nil {
		return fmt.Errorf("store: resync ledger: %w", err)
	}
	if err := l.f.Truncate(l.goodOff); err != nil {
		return fmt.Errorf("store: resync ledger: %w", err)
	}
	l.w.Reset(l.f)
	l.wErr = false
	return nil
}

// EnableReplication switches the ledger into cluster mode under origin, its
// cluster id: every accepted entry is retained in a per-origin in-memory
// history (so anti-entropy pulls are answered without touching the WAL) and
// per-origin watermarks track the highest OriginSeq held. From here on every
// replication read speaks origin ids, this ledger's own stream under origin:
// its entries replicate as (origin, Seq). replayed is the full entry list a
// boot-time OpenLedger returned (nil for a fresh or memory-only ledger); it
// seeds the history and watermarks. Must be called before concurrent use.
// The retained history is the WAL held in memory: Compact trims both by one
// rule, and a memory-only ledger keeps every entry — the standalone service
// never enables it and pays nothing.
func (l *Ledger) EnableReplication(origin string, replayed []Feedback) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hist != nil {
		return fmt.Errorf("store: replication already enabled")
	}
	l.origin = origin
	marks, hist, err := l.replicationState(replayed)
	if err != nil {
		return err
	}
	l.marks, l.hist = marks, hist
	return nil
}

// replicationState builds the per-origin watermarks and retained history
// that entries, WAL lines in ledger order, replicate as: a boot replay
// (EnableReplication) or the lines a compaction keeps (Compact). Callers
// hold mu.
func (l *Ledger) replicationState(entries []Feedback) (map[string]uint64, map[string][]Feedback, error) {
	marks := make(map[string]uint64)
	hist := make(map[string][]Feedback)
	for _, fb := range entries {
		fb = l.asReplicated(fb)
		if fb.OriginSeq <= marks[fb.Origin] {
			return nil, nil, fmt.Errorf("store: ledger seq %d: origin %q seq %d not increasing (after %d)",
				fb.Seq, fb.Origin, fb.OriginSeq, marks[fb.Origin])
		}
		marks[fb.Origin] = fb.OriginSeq
		fb.Shard = ShardOf(fb.Subject, l.shards)
		hist[fb.Origin] = append(hist[fb.Origin], fb)
	}
	return marks, hist, nil
}

// AppendReplicated applies entries pulled from peers, folded then queued,
// all or nothing, and returns the entries it applied. Every entry must carry
// a remote origin's tags and a valid rating, or the whole call is refused
// before anything changes. An entry at or below its origin's running
// watermark — applied earlier, or earlier in this call — is a duplicate and
// skipped; the rest go through the one append core exactly like local
// entries (one WAL write for the call, local sequence numbers) and advance
// their origins' watermarks. Queued entries fold at the next epoch; folded
// ones, which a bootstrap state transfer's segments already reflect, are
// recorded without entering the pending window. Replicated appends are
// flushed, never fsynced (the epoch boundary syncs). Requires
// EnableReplication.
func (l *Ledger) AppendReplicated(folded, queued []Feedback) ([]Feedback, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hist == nil {
		return nil, fmt.Errorf("store: replication not enabled")
	}
	var fresh []Feedback
	unqueued := 0
	running := make(map[string]uint64)
	for k, entries := range [][]Feedback{folded, queued} {
		for i, fb := range entries {
			if fb.Origin == "" || fb.Origin == l.origin || fb.OriginSeq == 0 {
				return nil, fmt.Errorf("store: replicated entry %d: (%q, %d) names no remote origin stream", i, fb.Origin, fb.OriginSeq)
			}
			if err := l.check(fb.Rater, fb.Subject, fb.Value); err != nil {
				return nil, fmt.Errorf("store: replicated entry %d: %w", i, err)
			}
			mark, ok := running[fb.Origin]
			if !ok {
				mark = l.marks[fb.Origin]
			}
			if fb.OriginSeq > mark {
				running[fb.Origin] = fb.OriginSeq
				fresh = append(fresh, fb)
				if k == 0 {
					unqueued++
				}
			}
		}
	}
	if err := l.appendLocked(fresh, unqueued); err != nil {
		return nil, err
	}
	return fresh, nil
}

// OriginMarks returns a copy of the per-origin replication watermarks, keyed
// by origin id: for every stream this ledger holds entries of, its own
// included, the highest origin sequence number held. Nil before
// EnableReplication.
func (l *Ledger) OriginMarks() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.marks == nil {
		return nil
	}
	out := make(map[string]uint64, len(l.marks))
	for o, s := range l.marks {
		out[o] = s
	}
	return out
}

// OriginMark returns the replication watermark of one origin stream (0
// before EnableReplication). For the ledger's own stream that is the Seq of
// its last locally accepted entry — NOT Seq(), which also counts replicated
// appends: peers can only ever catch up to the stream's own entries, so that
// is the number a digest must advertise for convergence to be detectable.
func (l *Ledger) OriginMark(origin string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.marks[origin]
}

// EntriesSince returns up to limit retained entries of one origin stream
// whose origin sequence number exceeds after, in ascending order — the
// payload of one anti-entropy pull. The entries are copies, stamped as they
// replicate: the ledger's own carry its origin id and their Seq. Nil before
// EnableReplication.
func (l *Ledger) EntriesSince(origin string, after uint64, limit int) []Feedback {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.hist[origin]
	lo := sort.Search(len(h), func(i int) bool { return h[i].OriginSeq > after })
	if lo == len(h) {
		return nil
	}
	end := len(h)
	if limit > 0 {
		end = min(end, lo+limit)
	}
	return append([]Feedback(nil), h[lo:end]...)
}

// Restore re-queues entries as pending without re-appending them to the
// file, preserving fold order: the entries go BEFORE anything currently
// pending, since they are older (boot-time WAL replay, or an epoch batch
// being returned after a failed epoch). Entries must carry their original
// Seq values.
func (l *Ledger) Restore(entries []Feedback) {
	if len(entries) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = append(append(make([]Feedback, 0, len(entries)+len(l.pending)), entries...), l.pending...)
	l.pendingN.Store(int64(len(l.pending)))
	for i := range entries {
		l.pending[i].Shard = ShardOf(l.pending[i].Subject, l.shards)
		l.markDirtyLocked(l.pending[i].Shard)
	}
}

// TakePending atomically removes and returns the pending window in append
// order, each entry stamped with its subject shard; the epoch scheduler
// calls it once per epoch. The per-shard dirty set transfers to the caller
// with the batch.
func (l *Ledger) TakePending() []Feedback {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.pending
	l.pending = nil
	l.pendingN.Store(0)
	for s := range l.dirty {
		l.dirty[s].Store(false)
	}
	l.dirtyCount.Store(0)
	return out
}

// PendingCount returns the number of entries awaiting the next epoch. It is
// a single atomic load — the stats endpoint reads it lock-free.
func (l *Ledger) PendingCount() int {
	return int(l.pendingN.Load())
}

// WALLines returns, lock-free, the number of entries the WAL file holds (0
// for a memory-only ledger).
func (l *Ledger) WALLines() int { return int(l.walLines.Load()) }

// Sync fsyncs the backing file (no-op for memory-only ledgers). The service
// calls it at each epoch boundary before persisting snapshot segments, so
// that after any crash the on-disk ledger is always at least as new as the
// on-disk segments — the invariant the boot-time truncation guard checks.
// Individual appends are flushed to the OS but not fsynced; a power loss can
// drop the tail since the last epoch, which replay handles, never entries a
// persisted segment claims to have folded.
//
// Only the buffered flush runs under the append mutex; the fsync syscall
// itself holds a separate sync mutex, so a slow disk delays at most other
// syncers — Submit keeps ingesting at memory speed while the kernel drains.
func (l *Ledger) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	f := l.f
	if f == nil {
		l.mu.Unlock()
		return nil
	}
	if l.w != nil {
		if l.wErr {
			if err := l.resyncLocked(); err != nil {
				l.mu.Unlock()
				return err
			}
		}
		if err := l.w.Flush(); err != nil {
			l.wErr = true
			l.mu.Unlock()
			return fmt.Errorf("store: flush ledger: %w", err)
		}
	}
	l.mu.Unlock()
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: sync ledger: %w", err)
	}
	l.mFsyncs.Inc()
	l.mFsyncHist.Load().Observe(time.Since(start).Seconds())
	return nil
}

// Seq returns the last assigned sequence number (0 when empty).
func (l *Ledger) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// N returns the node-id bound the ledger validates against.
func (l *Ledger) N() int { return l.n }

// Close flushes and closes the backing file, if any. It takes the sync
// mutex first so an in-flight fsync never races the close.
func (l *Ledger) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.w != nil {
		err = l.w.Flush()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f, l.w = nil, nil
	return err
}
