package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"diffgossip/internal/trust"
)

// This file is the sharded persistence format: a static manifest.json naming
// the layout plus one shard-NNNN.seg segment per subject shard. Segments are
// written individually with fsync + atomic rename as their shards fold — a
// clean shard's segment is never rewritten — and the write ordering (ledger
// fsync before any segment) keeps the boot invariant that the on-disk WAL
// covers everything any on-disk segment claims to have folded. The manifest
// is written once, when the directory is initialised or resharded, never per
// epoch, so there is no per-epoch global commit point to contend on.
//
// A segment is one flat little-endian record (see Save) closed by a CRC-32C
// of everything before it. One manifest version and one segment version are
// read; a segment this build cannot read is refused with an error naming the
// file, never migrated. A segment is a cache of the WAL: the service rebuilds
// an older build's segments, which it never opens, from the WAL.

// ShardSnapshot is one shard's immutable publication: the reputations and
// frozen trust columns of the subjects congruent to Shard mod Shards, as of
// this shard's last fold. It is frozen at construction, so readers share it
// without locks, and it is the only copy of its subjects' folded trust state
// — the next fold derives its columns from Cols (trust.Columns.With). Each
// shard carries its own fold point (Epoch, Seq): the composite view is
// snapshot-consistent per shard, not globally.
type ShardSnapshot struct {
	// Shard identifies this segment; Shards is the total count it was
	// written under. N is the network size.
	Shard, Shards, N int
	// Epoch is the service epoch counter value at this shard's last fold
	// (0 = boot, nothing folded yet). Seq is the ledger sequence number
	// through which this shard's subjects are folded: every ledger entry
	// for these subjects with Seq <= this value is reflected here.
	Epoch, Seq uint64
	// Global[k] is the global reputation of subject Shard + k*Shards.
	Global []float64
	// Steps is the slowest campaign of the last fold; Converged is whether
	// every campaign behind the published values converged (vacuously true
	// at boot). Computed counts the campaigns that actually ran in the last
	// fold — the per-shard increment of the service's incrementality fold
	// counter: the rated subjects the fold's batch re-rated, since a fold
	// carries every other slot's Global over from the shard's previous
	// segment. 0 when no write of the batch won its cell.
	Steps     int
	Converged bool
	Computed  int
	// TotalSteps sums every campaign's step count in the last fold.
	TotalSteps int
	// ElapsedNs is the last fold's wall-clock compute time.
	ElapsedNs int64
	// CreatedUnixNano is the publication wall-clock time.
	CreatedUnixNano int64
	// Cols holds the frozen trust columns of this shard's subjects.
	Cols *trust.Columns
}

// NewBootShardSnapshot returns the empty shard state a fresh service
// publishes before any feedback for the shard has been folded.
func NewBootShardSnapshot(n, shard, shards int, createdUnixNano int64) *ShardSnapshot {
	subjects := ShardSubjects(n, shard, shards)
	cols, err := trust.NewColumns(n, subjects)
	if err != nil {
		panic(err) // shard layout is internally generated; cannot fail
	}
	return &ShardSnapshot{
		Shard:           shard,
		Shards:          shards,
		N:               n,
		Global:          make([]float64, len(subjects)),
		Converged:       true,
		CreatedUnixNano: createdUnixNano,
		Cols:            cols,
	}
}

// Covers reports whether subject j belongs to this shard.
func (s *ShardSnapshot) Covers(j int) bool {
	return j >= 0 && j < s.N && ShardOf(j, s.Shards) == s.Shard
}

// Reputation returns subject j's global reputation under this shard
// snapshot; j must belong to the shard.
func (s *ShardSnapshot) Reputation(j int) (float64, error) {
	if !s.Covers(j) {
		return 0, fmt.Errorf("store: subject %d not in shard %d/%d over N=%d", j, s.Shard, s.Shards, s.N)
	}
	return s.Global[SlotOf(j, s.Shards)], nil
}

// RaterCount returns the distinct-rater count of subject j, the length of
// its trust column (0 when j is not in this shard).
func (s *ShardSnapshot) RaterCount(j int) int {
	_, k := s.Cols.ColumnSum(j)
	return k
}

// segMagic opens every segment. segVersion is the one segment format this
// build reads and writes; it follows the two gob versions older builds wrote
// as shard-NNNN.gob.
const (
	segMagic   = "DGSG"
	segVersion = 3
)

// segHeaderLen is the fixed header: magic, version uint32, N, Shard and
// Shards uint32, Epoch and Seq uint64, Steps, Computed, TotalSteps,
// ElapsedNs and CreatedUnixNano int64, Converged one byte.
const segHeaderLen = 4 + 4 + 3*4 + 2*8 + 5*8 + 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the segment: the fixed header, the Global slots as float64
// bits, the trust columns' section (trust.Columns.AppendBinary), then the
// CRC-32C of all of it; little-endian throughout.
func (s *ShardSnapshot) Save(w io.Writer) error {
	le := binary.LittleEndian
	b := make([]byte, 0, segHeaderLen+8*len(s.Global))
	b = append(b, segMagic...)
	b = le.AppendUint32(b, segVersion)
	for _, v := range []int{s.N, s.Shard, s.Shards} {
		b = le.AppendUint32(b, uint32(v))
	}
	b = le.AppendUint64(b, s.Epoch)
	b = le.AppendUint64(b, s.Seq)
	for _, v := range []int64{int64(s.Steps), int64(s.Computed), int64(s.TotalSteps), s.ElapsedNs, s.CreatedUnixNano} {
		b = le.AppendUint64(b, uint64(v))
	}
	converged := byte(0)
	if s.Converged {
		converged = 1
	}
	b = append(b, converged)
	for _, v := range s.Global {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = s.Cols.AppendBinary(b)
	if _, err := w.Write(le.AppendUint32(b, crc32.Checksum(b, castagnoli))); err != nil {
		return fmt.Errorf("store: write shard snapshot: %w", err)
	}
	return nil
}

// LoadShardSnapshot reads a segment written by Save, validating its shape
// against the shard layout it claims.
func LoadShardSnapshot(r io.Reader) (*ShardSnapshot, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: read shard snapshot: %w", err)
	}
	return decodeShardSnapshot(b)
}

// decodeShardSnapshot decodes one whole segment. The magic and version are
// checked before the checksum, so an older build's file or another version
// is refused as such whatever its trailer.
func decodeShardSnapshot(b []byte) (*ShardSnapshot, error) {
	le := binary.LittleEndian
	if len(b) < segHeaderLen+4 || string(b[:4]) != segMagic {
		return nil, fmt.Errorf("store: not a whole shard segment of this format, which opens with %q (%d bytes): an older build's gob segment, or not a segment", segMagic, len(b))
	}
	if v := le.Uint32(b[4:]); v != segVersion {
		return nil, fmt.Errorf("store: unsupported shard snapshot version %d (this build reads version %d only)", v, segVersion)
	}
	body := b[:len(b)-4]
	if got, want := crc32.Checksum(body, castagnoli), le.Uint32(b[len(body):]); got != want {
		return nil, fmt.Errorf("store: shard snapshot checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	s := &ShardSnapshot{
		N: int(le.Uint32(b[8:])), Shard: int(le.Uint32(b[12:])), Shards: int(le.Uint32(b[16:])),
		Epoch: le.Uint64(b[20:]), Seq: le.Uint64(b[28:]),
		Steps: int(int64(le.Uint64(b[36:]))), Computed: int(int64(le.Uint64(b[44:]))), TotalSteps: int(int64(le.Uint64(b[52:]))),
		ElapsedNs: int64(le.Uint64(b[60:])), CreatedUnixNano: int64(le.Uint64(b[68:])),
		Converged: b[76] == 1,
	}
	if b[76] > 1 || s.Shards < 1 || s.Shard >= s.Shards {
		return nil, fmt.Errorf("store: malformed shard snapshot header")
	}
	slots := (s.N - s.Shard + s.Shards - 1) / s.Shards // 0 when Shard >= N
	body = body[segHeaderLen:]
	if slots > len(body)/8 {
		return nil, fmt.Errorf("store: shard snapshot claims %d slots in %d bytes", slots, len(body))
	}
	s.Global = make([]float64, slots)
	for k := range s.Global {
		v := math.Float64frombits(le.Uint64(body[8*k:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("store: shard snapshot slot %d holds reputation %v", k, v)
		}
		s.Global[k] = v
	}
	cols, rest, err := trust.DecodeColumns(body[8*slots:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 || cols.N() != s.N || len(cols.Subjects()) != slots {
		return nil, fmt.Errorf("store: shard snapshot columns do not match the shard layout (%d bytes after them)", len(rest))
	}
	for k, j := range cols.Subjects() {
		if j != s.Shard+k*s.Shards {
			return nil, fmt.Errorf("store: shard snapshot column %d holds subject %d", k, j)
		}
	}
	s.Cols = cols
	return s, nil
}

// SaveFile writes the segment to path atomically and durably (fsync, rename,
// directory fsync).
func (s *ShardSnapshot) SaveFile(path string) error {
	err := writeFileAtomic(path, ".shard-*.tmp", s.Save)
	if err == nil {
		snapshotWrites.Inc()
	}
	return err
}

// LoadShardFile reads a segment written by SaveFile; (nil, nil) when the
// file does not exist (a shard that never folded has no segment).
func LoadShardFile(path string) (*ShardSnapshot, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open shard snapshot: %w", err)
	}
	seg, err := decodeShardSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return seg, nil
}

// writeFileAtomic is the shared atomic-and-durable publication primitive:
// write to a same-directory temp file, fsync, rename over path, fsync the
// directory entry. After a crash the path holds either the old contents or
// the complete new ones, never a torn file.
func writeFileAtomic(path, tmpPattern string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publish %s: %w", filepath.Base(path), err)
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync makes the rename itself durable; best effort on
		// filesystems that reject it.
		d.Sync()
		d.Close()
	}
	return nil
}

// Manifest is the static identity of a sharded data directory: written once
// when the directory is initialised (or resharded), never per epoch.
type Manifest struct {
	Version         int   `json:"version"`
	N               int   `json:"n"`
	Shards          int   `json:"shards"`
	CreatedUnixNano int64 `json:"created_unix_nano"`
}

const manifestVersion = 1

// SaveManifestFile writes the manifest atomically and durably.
func SaveManifestFile(m Manifest, path string) error {
	m.Version = manifestVersion
	return writeFileAtomic(path, ".manifest-*.tmp", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(m)
	})
}

// LoadManifestFile reads a manifest; (nil, nil) when the file does not
// exist (a directory that has never been initialised).
func LoadManifestFile(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", m.Version)
	}
	if m.N < 1 || m.Shards < 1 || m.Shards > m.N {
		return nil, fmt.Errorf("store: malformed manifest (n=%d, shards=%d)", m.N, m.Shards)
	}
	return &m, nil
}

// Reshard regroups one complete layout's segments along a shard count —
// what the service does to every set of segments it installs, whether read
// at boot or received in a bootstrap transfer. At the same count it checks
// the layout and returns shallow copies, sharing each segment's globals and
// columns, for the caller to re-point. At another count trust columns with
// their stamps and the globals move verbatim, so the
// new layout serves exactly the reputations the old one did. Every new
// segment takes the minimum Seq over the old segments that contribute
// subjects to it — their fold points cover every subject it holds, so the
// fold point is sound; entries above it may already be folded, but
// refolding is idempotent — and the maximum Epoch over all of them (keeping
// the service's epoch counter monotone). Regrouping 2 → 4 thus keeps each
// old shard's fold point exactly. A reshard re-slots every subject, so the
// service's first fold of each new segment computes its whole shard: correct,
// just slower.
func Reshard(segs []*ShardSnapshot, shards int) ([]*ShardSnapshot, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("store: no segments to reshard")
	}
	tmpl := ShardSnapshot{Converged: true}
	for sh, seg := range segs {
		if seg == nil {
			return nil, fmt.Errorf("store: missing segment %d", sh)
		}
		if sh == 0 {
			tmpl.N = seg.N
		}
		if seg.N != tmpl.N || seg.Shards != len(segs) || seg.Shard != sh {
			return nil, fmt.Errorf("store: segment %d does not fit the layout (shard %d/%d over N=%d)", sh, seg.Shard, seg.Shards, seg.N)
		}
		tmpl.Epoch = max(tmpl.Epoch, seg.Epoch)
		tmpl.Steps = max(tmpl.Steps, seg.Steps)
		tmpl.CreatedUnixNano = max(tmpl.CreatedUnixNano, seg.CreatedUnixNano)
		tmpl.ElapsedNs += seg.ElapsedNs
		tmpl.Converged = tmpl.Converged && seg.Converged
	}
	if shards < 1 || shards > tmpl.N {
		return nil, fmt.Errorf("store: cannot reshard N=%d into %d shards", tmpl.N, shards)
	}
	out := make([]*ShardSnapshot, shards)
	if shards == len(segs) {
		for sh, seg := range segs {
			cp := *seg
			out[sh] = &cp
		}
		return out, nil
	}
	for sh := range out {
		subjects := ShardSubjects(tmpl.N, sh, shards)
		seg := tmpl
		seg.Shard, seg.Shards = sh, shards
		seg.Seq = ^uint64(0) // shards ≤ N, so some subject lowers it below
		seg.Global = make([]float64, len(subjects))
		var cells []trust.Cell
		for k, j := range subjects {
			old, slot := segs[ShardOf(j, len(segs))], SlotOf(j, len(segs))
			seg.Seq = min(seg.Seq, old.Seq)
			seg.Global[k] = old.Global[slot]
			_, raters, vals, stamps := old.Cols.ColumnAt(slot)
			for x, i := range raters {
				cells = append(cells, trust.Cell{Rater: i, Subject: j, Value: vals[x], Stamp: stamps[x]})
			}
		}
		var err error
		if seg.Cols, _, err = NewBootShardSnapshot(tmpl.N, sh, shards, 0).Cols.With(cells); err != nil {
			return nil, err
		}
		out[sh] = &seg
	}
	return out, nil
}
