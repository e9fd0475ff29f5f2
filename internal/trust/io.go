package trust

import (
	"encoding/gob"
	"fmt"
	"io"
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
// stays compact and deterministic.
type columnsWire struct {
	N        int
	Subjects []int
	Counts   []int // entries per subject, parallel to Subjects
	I        []int // rater ids, concatenated in subject order
	V        []float64
	Version  int
}

// Save serialises the column set with gob, deterministically (subjects and
// raters ascending).
func (c *Columns) Save(w io.Writer) error {
	wire := columnsWire{N: c.n, Version: wireVersion}
	for s := range c.subjects {
		j, ids, vals := c.ColumnAt(s)
		wire.Subjects = append(wire.Subjects, j)
		wire.Counts = append(wire.Counts, len(ids))
		wire.I = append(wire.I, ids...)
		wire.V = append(wire.V, vals...)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// LoadColumns deserialises a column set written by (*Columns).Save,
// validating shape, ranges and ordering.
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
	return NewColumns(wire.N, wire.Subjects, raters, vals)
}
