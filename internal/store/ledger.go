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
// readers may share one across goroutines without locks; persistence uses
// gob (nesting trust.Columns' wire format) with atomic rename, so a crash
// leaves either the old segment or the new one, never a torn file.
//
// Every WAL line is written and read by the one Feedback codec in codec.go,
// with encoding/json behind it: the file format is what it always was.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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
	// Origin is the cluster node id that first accepted this entry, for
	// entries replicated in from a peer; empty for entries this ledger
	// accepted itself (the common, standalone case — the WAL format is
	// unchanged when clustering is off). OriginSeq is the sequence number the
	// origin's own ledger assigned. The (Origin, OriginSeq) pair globally
	// identifies a replicated entry, which is what makes replicated
	// application idempotent.
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

	// Replication state, nil until EnableReplication: marks holds the
	// highest OriginSeq applied per remote origin (the local stream's
	// watermark is just seq), and hist retains every accepted entry per
	// origin ("" = locally accepted) so anti-entropy pulls are answered from
	// memory instead of re-reading the WAL. Both guarded by mu.
	marks map[string]uint64
	hist  map[string][]Feedback

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
	mHistTrims    obs.Counter
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
	l.mu.Lock()
	defer l.mu.Unlock()
	fb := Feedback{Rater: rater, Subject: subject, Value: value, UnixNano: unixNano}
	if err := l.appendLocked(&fb); err != nil {
		return 0, err
	}
	return fb.Seq, nil
}

// appendLocked assigns the next local sequence number, durably writes the WAL
// line, and admits the entry to the pending window (and, in replication mode,
// the retained per-origin history). Callers hold mu; fb.Seq and fb.Shard are
// filled in on success, and on error nothing — file or memory — has changed.
func (l *Ledger) appendLocked(fb *Feedback) error {
	return l.appendModeLocked(fb, true)
}

// appendModeLocked is appendLocked with the pending window made optional:
// enqueue=false records the entry in the WAL, history and watermarks but
// does NOT add it to the pending window or dirty set — for entries arriving
// in a bootstrap state transfer, whose fold is already reflected in the
// shipped segments.
func (l *Ledger) appendModeLocked(fb *Feedback, enqueue bool) error {
	if l.seq == math.MaxUint64 {
		// Replaying a hostile ledger can leave seq at the top of its range;
		// wrapping to 0 would durably write an entry that poisons every
		// future replay (seq must be strictly increasing), so refuse.
		return fmt.Errorf("store: ledger sequence space exhausted")
	}
	fb.Seq = l.seq + 1
	if l.w != nil {
		l.enc = append(AppendFeedback(l.enc[:0], fb), '\n')
		if err := l.writeWALLocked(l.enc); err != nil {
			return err
		}
		l.mWALAppends.Inc()
	}
	l.mEntries.Inc()
	l.seq = fb.Seq
	fb.Shard = ShardOf(fb.Subject, l.shards)
	if enqueue {
		l.pending = append(l.pending, *fb)
		l.pendingN.Store(int64(len(l.pending)))
		l.markDirtyLocked(fb.Shard)
	}
	if l.hist != nil {
		l.hist[fb.Origin] = append(l.hist[fb.Origin], *fb)
		if fb.Origin != "" {
			l.marks[fb.Origin] = fb.OriginSeq
		}
	}
	return nil
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
// Entries must be local (no Origin tags): replicated entries arrive one at a
// time through AppendReplicated, whose watermark bookkeeping is per-entry.
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
	if l.seq > math.MaxUint64-uint64(len(entries)) {
		l.mu.Unlock()
		return 0, 0, fmt.Errorf("store: ledger sequence space exhausted")
	}
	if l.w != nil {
		l.enc = l.enc[:0]
		for i := range entries {
			entries[i].Seq = l.seq + 1 + uint64(i)
			l.enc = append(AppendFeedback(l.enc, &entries[i]), '\n')
		}
		if err := l.writeWALLocked(l.enc); err != nil {
			l.mu.Unlock()
			return 0, 0, err
		}
		l.mWALAppends.Add(uint64(len(entries)))
	}
	for i := range entries {
		entries[i].Seq = l.seq + 1 + uint64(i)
		entries[i].Shard = ShardOf(entries[i].Subject, l.shards)
		l.markDirtyLocked(entries[i].Shard)
	}
	l.seq += uint64(len(entries))
	l.mEntries.Add(uint64(len(entries)))
	l.pending = append(l.pending, entries...)
	l.pendingN.Store(int64(len(l.pending)))
	if l.hist != nil {
		l.hist[""] = append(l.hist[""], entries...)
	}
	first, last = entries[0].Seq, entries[len(entries)-1].Seq
	l.mu.Unlock()
	// The one amortized disk barrier; Sync takes its own mutex, so a slow
	// disk stalls only other syncers, never concurrent appends.
	if err := l.Sync(); err != nil {
		return 0, 0, err
	}
	return first, last, nil
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

// EnableReplication switches the ledger into cluster mode: every accepted
// entry is retained in a per-origin in-memory history (so anti-entropy pulls
// are answered without touching the WAL) and per-origin watermarks track the
// highest replicated OriginSeq applied. replayed is the full entry list a
// boot-time OpenLedger returned (nil for a fresh or memory-only ledger); it
// seeds the history and watermarks. Must be called before concurrent use.
// The retained history mirrors the WAL, so memory grows with ledger size —
// the standalone service never enables it and pays nothing.
func (l *Ledger) EnableReplication(replayed []Feedback) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hist != nil {
		return fmt.Errorf("store: replication already enabled")
	}
	marks := make(map[string]uint64)
	hist := make(map[string][]Feedback)
	for _, fb := range replayed {
		if fb.Origin != "" {
			if fb.OriginSeq <= marks[fb.Origin] {
				return fmt.Errorf("store: ledger seq %d: origin %q seq %d not increasing (after %d)",
					fb.Seq, fb.Origin, fb.OriginSeq, marks[fb.Origin])
			}
			marks[fb.Origin] = fb.OriginSeq
		}
		fb.Shard = ShardOf(fb.Subject, l.shards)
		hist[fb.Origin] = append(hist[fb.Origin], fb)
	}
	l.marks, l.hist = marks, hist
	return nil
}

// AppendReplicated applies one entry pulled from a peer, idempotently: an
// entry at or below its origin's watermark reports (0, false, nil) and
// changes nothing; a new entry is appended exactly like a local one — WAL
// line (with its origin tags), local sequence number, pending window, shard
// dirty set — and advances the origin's watermark. Requires
// EnableReplication. Entries of one origin must be applied in ascending
// OriginSeq order; the cluster layer's batch framing guarantees it.
func (l *Ledger) AppendReplicated(fb Feedback) (uint64, bool, error) {
	if fb.Origin == "" || fb.OriginSeq == 0 {
		return 0, false, fmt.Errorf("store: replicated entry missing origin tags")
	}
	if err := l.check(fb.Rater, fb.Subject, fb.Value); err != nil {
		return 0, false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hist == nil {
		return 0, false, fmt.Errorf("store: replication not enabled")
	}
	if fb.OriginSeq <= l.marks[fb.Origin] {
		return 0, false, nil // duplicate: already applied
	}
	if err := l.appendLocked(&fb); err != nil {
		return 0, false, err
	}
	return fb.Seq, true, nil
}

// AppendReplicatedStored applies one replicated entry exactly like
// AppendReplicated — WAL line, local sequence number, history, watermark —
// but does NOT enqueue it in the pending window: the caller asserts its fold
// is already reflected in state it is installing alongside (a bootstrap
// state transfer). Same idempotency rule: at or below the origin watermark
// reports (0, false, nil).
func (l *Ledger) AppendReplicatedStored(fb Feedback) (uint64, bool, error) {
	if fb.Origin == "" || fb.OriginSeq == 0 {
		return 0, false, fmt.Errorf("store: replicated entry missing origin tags")
	}
	if err := l.check(fb.Rater, fb.Subject, fb.Value); err != nil {
		return 0, false, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hist == nil {
		return 0, false, fmt.Errorf("store: replication not enabled")
	}
	if fb.OriginSeq <= l.marks[fb.Origin] {
		return 0, false, nil // duplicate: already applied
	}
	if err := l.appendModeLocked(&fb, false); err != nil {
		return 0, false, err
	}
	return fb.Seq, true, nil
}

// OriginMarks returns a copy of the per-origin replication watermarks: for
// each remote origin, the highest OriginSeq applied. The local stream's
// watermark is Seq(). Nil before EnableReplication.
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

// OriginMark returns the replication watermark of one origin stream. For a
// remote origin that is the highest OriginSeq applied. For the local stream
// ("") it is the Seq of the last locally-originated entry — NOT the raw
// ledger seq, which also counts replicated appends: peers can only ever
// catch up to the local stream's own entries, so that is the number a
// digest must advertise for convergence to be detectable.
func (l *Ledger) OriginMark(origin string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if origin == "" {
		if l.hist != nil {
			if h := l.hist[""]; len(h) > 0 {
				return h[len(h)-1].Seq
			}
			return 0
		}
		return l.seq
	}
	return l.marks[origin]
}

// EntriesSince returns up to limit retained entries of one origin stream
// ("" = locally accepted) whose origin sequence number exceeds after, in
// ascending order — the payload of one anti-entropy pull. For the local
// stream the ordering key is Seq; for a remote origin it is OriginSeq.
// Requires EnableReplication (nil otherwise). The returned entries are
// copies; local ones carry Origin=="" and the caller stamps its own node id
// before putting them on the wire.
func (l *Ledger) EntriesSince(origin string, after uint64, limit int) []Feedback {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hist == nil {
		return nil
	}
	h := l.hist[origin]
	key := func(fb Feedback) uint64 {
		if origin == "" {
			return fb.Seq
		}
		return fb.OriginSeq
	}
	// Binary search for the first entry past the watermark: both streams are
	// appended in ascending key order.
	lo, hi := 0, len(h)
	for lo < hi {
		mid := (lo + hi) / 2
		if key(h[mid]) <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(h) {
		return nil
	}
	end := len(h)
	if limit > 0 && lo+limit < end {
		end = lo + limit
	}
	out := make([]Feedback, end-lo)
	copy(out, h[lo:end])
	return out
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
