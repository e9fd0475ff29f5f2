package trust

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// maxWireN caps the node count accepted from a serialised column set.
// DecodeColumns allocates Θ(N) for the row index whatever the payload holds,
// so a corrupt header must be an error, not an out-of-range allocation (found
// by fuzzing). 2^24 nodes is two orders of magnitude beyond the largest
// experiment and bounds that allocation at a few hundred megabytes.
const maxWireN = 1 << 24

// cellWireLen is one cell's record: rater uint32, value float64 bits, then
// its stamp's ts int64, seq uint64 and origin index uint32.
const cellWireLen = 4 + 8 + 8 + 8 + 4

// AppendBinary appends the column set's wire section to b and returns the
// extended slice. All integers are little-endian:
//
//	N uint32, S uint32, S subjects uint32, S per-slot counts uint32,
//	then per cell in column order (raters ascending) one cellWireLen record,
//	then the origin table: count uint32, per origin its length uint32 and bytes.
//
// The encoding is deterministic: a set that DecodeColumns accepts re-encodes
// to the same bytes.
func (c *Columns) AppendBinary(b []byte) []byte {
	size := 8 + 8*len(c.subjects) + cellWireLen*c.NumEntries() + 4
	for _, o := range c.origins {
		size += 4 + len(o)
	}
	b = slices.Grow(b, size)
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(c.n))
	b = le.AppendUint32(b, uint32(len(c.subjects)))
	for _, j := range c.subjects {
		b = le.AppendUint32(b, uint32(j))
	}
	for _, ids := range c.raters {
		b = le.AppendUint32(b, uint32(len(ids)))
	}
	for s, ids := range c.raters {
		for x, i := range ids {
			st := c.stampAt(s, x)
			b = le.AppendUint32(b, uint32(i))
			b = le.AppendUint64(b, math.Float64bits(c.vals[s][x]))
			b = le.AppendUint64(b, uint64(st.ts))
			b = le.AppendUint64(b, st.seq)
			b = le.AppendUint32(b, st.org)
		}
	}
	b = le.AppendUint32(b, uint32(len(c.origins)))
	for _, o := range c.origins {
		b = le.AppendUint32(b, uint32(len(o)))
		b = append(b, o...)
	}
	return b
}

// DecodeColumns decodes one column set written by AppendBinary from the front
// of b and returns it with the bytes after it. It checks every count against
// the bytes left before allocating for it, and every invariant the other
// constructors hold: subjects strictly ascending in [0,N), raters strictly
// ascending in [0,N) per column, values in [0,1], an origin table that
// starts with "" and resolves every stamp. Each slot holding a stamp gets its
// own stamps allocation, as With keeps them, so a slot With rewrites frees
// its old ones.
func DecodeColumns(b []byte) (*Columns, []byte, error) {
	le := binary.LittleEndian
	malformed := func(format string, args ...any) (*Columns, []byte, error) {
		return nil, nil, fmt.Errorf("trust: malformed columns section: "+format, args...)
	}
	if len(b) < 8 {
		return malformed("%d bytes", len(b))
	}
	n, ns := int(le.Uint32(b)), int(le.Uint32(b[4:]))
	if n > maxWireN || ns > n || 8*ns > len(b)-8 {
		return malformed("%d subjects over N=%d (at most %d) in %d bytes", ns, n, maxWireN, len(b))
	}
	subjects, offs := make([]int, ns), make([]int, ns+1)
	for s := range subjects {
		cnt := int(le.Uint32(b[8+4*(ns+s):]))
		if cnt > n {
			return malformed("a column of %d raters over N=%d", cnt, n)
		}
		subjects[s], offs[s+1] = int(le.Uint32(b[8+4*s:])), offs[s]+cnt
	}
	c, err := newColumnsShell(n, subjects)
	if err != nil {
		return nil, nil, err
	}
	b = b[8+8*ns:]
	total := offs[ns]
	if len(b) < 4 || total > (len(b)-4)/cellWireLen {
		return malformed("%d cells in %d bytes", total, len(b))
	}
	cells, b := b[:cellWireLen*total], b[cellWireLen*total:]
	// The origin table follows the cells; read it first so that each
	// stamp's origin index is checked as its cell decodes.
	no := int(le.Uint32(b))
	if b = b[4:]; no < 1 || no > len(b)/4 {
		return malformed("%d origins in %d bytes", no, len(b))
	}
	c.origins = make([]string, no)
	for k := range c.origins {
		if len(b) < 4 || int(le.Uint32(b)) > len(b)-4 || k == 0 && le.Uint32(b) != 0 {
			return malformed("origin %d overruns the section or, first, is not \"\"", k)
		}
		l := int(le.Uint32(b))
		c.origins[k], b = string(b[4:4+l]), b[4+l:]
	}
	ids, vals := make([]int, total), make([]float64, total)
	for s, j := range subjects {
		for x := offs[s]; x < offs[s+1]; x++ {
			p := cells[cellWireLen*x:]
			i, v := int(le.Uint32(p)), math.Float64frombits(le.Uint64(p[4:]))
			st := stamp{ts: int64(le.Uint64(p[12:])), seq: le.Uint64(p[20:]), org: le.Uint32(p[28:])}
			if i >= n || x > offs[s] && i <= ids[x-1] || !(v >= 0 && v <= 1) || int(st.org) >= no {
				return malformed("column %d cell (rater %d, value %v, origin %d of %d)", j, i, v, st.org, no)
			}
			if c.stamps[s] == nil && st != (stamp{}) {
				c.stamps[s] = make([]stamp, offs[s+1]-offs[s])
			}
			if c.stamps[s] != nil {
				c.stamps[s][x-offs[s]] = st
			}
			ids[x], vals[x] = i, v
		}
	}
	c.attachFlat(ids, vals, offs)
	return c, b, nil
}
