package trust

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

const wireVersion = 1

// maxWireN caps the node count accepted from a serialised column set.
// LoadColumns allocates Θ(N) before reading any entries, so without a bound
// a corrupt or hostile file crashes the process with an out-of-range
// allocation instead of returning an error (found by fuzzing the decoder).
// 2^24 nodes is two orders of magnitude beyond the largest experiment and
// keeps the worst-case transient allocation at a few hundred megabytes.
const maxWireN = 1 << 24

// columnsWire is the gob representation of a frozen Columns: the subject
// list plus one flat (rater, value) list, column by column, so the format
// stays compact and deterministic; beside it the origin table (entry 0 is "")
// and one stamp per entry, all or none (older builds wrote none).
type columnsWire struct {
	N        int
	Subjects []int
	Counts   []int // entries per subject, parallel to Subjects
	I        []int // rater ids, concatenated in subject order
	V        []float64
	Version  int
	Origins  []string
	StampTS  []int64
	StampSeq []uint64
	StampOrg []uint32
}

// Save serialises the column set with gob, deterministically (subjects and
// raters ascending).
func (c *Columns) Save(w io.Writer) error {
	wire := columnsWire{N: c.n, Subjects: c.subjects, Version: wireVersion, Origins: c.origins}
	for s, ids := range c.raters {
		wire.Counts = append(wire.Counts, len(ids))
		wire.I = append(wire.I, ids...)
		wire.V = append(wire.V, c.vals[s]...)
		for x := range ids {
			st := c.stampAt(s, x)
			wire.StampTS = append(wire.StampTS, st.ts)
			wire.StampSeq = append(wire.StampSeq, st.seq)
			wire.StampOrg = append(wire.StampOrg, st.org)
		}
	}
	return gob.NewEncoder(w).Encode(wire)
}

// LoadColumns deserialises a column set written by (*Columns).Save,
// validating shape, ranges, ordering and stamps.
func LoadColumns(r io.Reader) (*Columns, error) {
	var wire columnsWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("trust: decode columns: %w", err)
	}
	if wire.Version != wireVersion {
		return nil, fmt.Errorf("trust: unsupported columns version %d", wire.Version)
	}
	if wire.N < 0 || wire.N > maxWireN || len(wire.Counts) != len(wire.Subjects) || len(wire.Subjects) > wire.N {
		return nil, fmt.Errorf("trust: malformed columns payload")
	}
	if len(wire.I) != len(wire.V) {
		return nil, fmt.Errorf("trust: malformed columns payload")
	}
	raters := make([][]int, len(wire.Subjects))
	vals := make([][]float64, len(wire.Subjects))
	off := 0
	for s, cnt := range wire.Counts {
		// Subtraction form: off+cnt can overflow on a hostile count.
		if cnt < 0 || cnt > len(wire.I)-off {
			return nil, fmt.Errorf("trust: malformed columns payload")
		}
		raters[s] = wire.I[off : off+cnt]
		vals[s] = wire.V[off : off+cnt]
		off += cnt
	}
	if off != len(wire.I) {
		return nil, fmt.Errorf("trust: malformed columns payload")
	}
	c, err := NewColumns(wire.N, wire.Subjects, raters, vals)
	if err != nil || len(wire.Origins)+len(wire.StampTS)+len(wire.StampSeq)+len(wire.StampOrg) == 0 {
		return c, err
	}
	if len(wire.Origins) == 0 || wire.Origins[0] != "" || len(wire.StampTS) != off || len(wire.StampSeq) != off || len(wire.StampOrg) != off ||
		slices.ContainsFunc(wire.StampOrg, func(org uint32) bool { return int(org) >= len(wire.Origins) }) {
		return nil, fmt.Errorf("trust: malformed columns stamps (%d/%d/%d for %d entries, %d origins)", len(wire.StampTS), len(wire.StampSeq), len(wire.StampOrg), off, len(wire.Origins))
	}
	c.origins, off = wire.Origins, 0
	for s, cnt := range wire.Counts {
		c.stamps[s] = make([]stamp, cnt) // each slot its own allocation, as With keeps them
		for x := range c.stamps[s] {
			c.stamps[s][x] = stamp{wire.StampTS[off+x], wire.StampSeq[off+x], wire.StampOrg[off+x]}
		}
		off += cnt
	}
	return c, nil
}
