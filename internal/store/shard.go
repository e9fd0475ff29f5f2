package store

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"diffgossip/internal/trust"
)

// This file is the sharded persistence format: a static manifest.json naming
// the layout plus one shard-NNNN.gob segment per subject shard. Segments are
// written individually with fsync + atomic rename as their shards fold — a
// clean shard's segment is never rewritten — and the write ordering (ledger
// fsync before any segment) keeps the boot invariant that the on-disk WAL
// covers everything any on-disk segment claims to have folded. The manifest
// is written once, when the directory is initialised or resharded, never per
// epoch, so there is no per-epoch global commit point to contend on.
//
// One manifest version and one segment wire version are read; anything else
// is refused with an error naming the supported version, never migrated.
// Within version 2, gob skips stream fields the reader lacks: a segment
// written with the campaign states and fingerprint older builds kept loads
// with those ignored.

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
	// Global[k] is the global reputation of subject Shard + k*Shards;
	// Raters[k] its distinct-rater count.
	Global []float64
	Raters []int
	// Steps is the slowest campaign of the last fold; Converged is whether
	// every campaign behind the published values converged (vacuously true
	// at boot). Computed counts the campaigns that actually ran in the last
	// fold — the per-shard increment of the service's incrementality fold
	// counter: the rated subjects the fold's batch re-rated, since a fold
	// carries every other slot (Global, Raters) over from the shard's
	// previous segment. 0 when no write of the batch won its cell.
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
	cols, err := trust.NewColumns(n, subjects, make([][]int, len(subjects)), make([][]float64, len(subjects)))
	if err != nil {
		panic(err) // shard layout is internally generated; cannot fail
	}
	return &ShardSnapshot{
		Shard:           shard,
		Shards:          shards,
		N:               n,
		Global:          make([]float64, len(subjects)),
		Raters:          make([]int, len(subjects)),
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

// RaterCount returns the distinct-rater count of subject j (0 when j is not
// in this shard).
func (s *ShardSnapshot) RaterCount(j int) int {
	if !s.Covers(j) {
		return 0
	}
	return s.Raters[SlotOf(j, s.Shards)]
}

// shardWire is the gob representation of a segment; the frozen columns ride
// as their own payload so trust's versioned wire format is reused.
type shardWire struct {
	Version          int
	Shard, Shards, N int
	Epoch, Seq       uint64
	Global           []float64
	Raters           []int
	Steps            int
	Converged        bool
	Computed         int
	TotalSteps       int
	ElapsedNs        int64
	CreatedUnixNano  int64
	Cols             []byte
}

// shardWireVersion is the one segment format this build reads and writes.
const shardWireVersion = 2

// maxShardWireN caps the node count accepted from a serialised segment,
// mirroring trust's maxWireN: decode allocates Θ(N) before reading entries.
const maxShardWireN = 1 << 24

// Save serialises the segment with gob.
func (s *ShardSnapshot) Save(w io.Writer) error {
	var cb bytes.Buffer
	if err := s.Cols.Save(&cb); err != nil {
		return fmt.Errorf("store: encode shard columns: %w", err)
	}
	wire := shardWire{
		Version: shardWireVersion,
		Shard:   s.Shard, Shards: s.Shards, N: s.N,
		Epoch: s.Epoch, Seq: s.Seq,
		Global: s.Global, Raters: s.Raters,
		Steps: s.Steps, Converged: s.Converged, Computed: s.Computed,
		TotalSteps: s.TotalSteps, ElapsedNs: s.ElapsedNs, CreatedUnixNano: s.CreatedUnixNano,
		Cols: cb.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("store: encode shard snapshot: %w", err)
	}
	return nil
}

// LoadShardSnapshot deserialises a segment written by Save, validating its
// shape against the shard layout it claims.
func LoadShardSnapshot(r io.Reader) (*ShardSnapshot, error) {
	var wire shardWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("store: decode shard snapshot: %w", err)
	}
	if wire.Version != shardWireVersion {
		return nil, fmt.Errorf("store: unsupported shard snapshot version %d (this build reads version %d only)", wire.Version, shardWireVersion)
	}
	if wire.N < 0 || wire.Shards < 1 || wire.Shard < 0 || wire.Shard >= wire.Shards {
		return nil, fmt.Errorf("store: malformed shard snapshot header")
	}
	if wire.N > maxShardWireN {
		// Bound before ShardSubjects allocates Θ(N) — a corrupt header must
		// be an error, not an out-of-range allocation (same guard class as
		// trust's maxWireN, found by fuzzing).
		return nil, fmt.Errorf("store: shard snapshot size %d exceeds the wire-format bound %d", wire.N, maxShardWireN)
	}
	want := len(ShardSubjects(wire.N, wire.Shard, wire.Shards))
	if len(wire.Global) != want || len(wire.Raters) != want {
		return nil, fmt.Errorf("store: shard snapshot has %d/%d slots, want %d", len(wire.Global), len(wire.Raters), want)
	}
	cols, err := trust.LoadColumns(bytes.NewReader(wire.Cols))
	if err != nil {
		return nil, err
	}
	if cols.N() != wire.N || len(cols.Subjects()) != want {
		return nil, fmt.Errorf("store: shard snapshot columns do not match the shard layout")
	}
	for k, j := range cols.Subjects() {
		if j != wire.Shard+k*wire.Shards {
			return nil, fmt.Errorf("store: shard snapshot column %d holds subject %d", k, j)
		}
	}
	return &ShardSnapshot{
		Shard: wire.Shard, Shards: wire.Shards, N: wire.N,
		Epoch: wire.Epoch, Seq: wire.Seq,
		Global: wire.Global, Raters: wire.Raters,
		Steps: wire.Steps, Converged: wire.Converged, Computed: wire.Computed,
		TotalSteps: wire.TotalSteps, ElapsedNs: wire.ElapsedNs, CreatedUnixNano: wire.CreatedUnixNano,
		Cols: cols,
	}, nil
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
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: open shard snapshot: %w", err)
	}
	defer f.Close()
	seg, err := LoadShardSnapshot(f)
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

// Reshard regroups one complete layout's segments along a new shard count —
// what boot does when the manifest disagrees with the configured count, and
// what a bootstrap install does when the sender shards differently. Trust
// columns with their stamps, globals and rater counts move verbatim, so the
// new layout serves exactly the reputations the old one did. Every new
// segment takes the minimum Seq over the old ones (entries above it may
// already be folded into some shards, but refolding is idempotent, so the
// conservative fold point is always safe) and the maximum Epoch (keeping the
// service's epoch counter monotone). A reshard re-slots every subject, so the
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
			tmpl.N, tmpl.Seq = seg.N, seg.Seq
		}
		if seg.N != tmpl.N || seg.Shards != len(segs) || seg.Shard != sh {
			return nil, fmt.Errorf("store: segment %d does not fit the layout (shard %d/%d over N=%d)", sh, seg.Shard, seg.Shards, seg.N)
		}
		tmpl.Seq = min(tmpl.Seq, seg.Seq)
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
	for sh := range out {
		subjects := ShardSubjects(tmpl.N, sh, shards)
		seg := tmpl
		seg.Shard, seg.Shards = sh, shards
		seg.Global = make([]float64, len(subjects))
		seg.Raters = make([]int, len(subjects))
		var cells []trust.Cell
		for k, j := range subjects {
			old, slot := segs[ShardOf(j, len(segs))], SlotOf(j, len(segs))
			seg.Global[k], seg.Raters[k] = old.Global[slot], old.Raters[slot]
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
