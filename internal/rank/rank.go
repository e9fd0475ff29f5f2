// Package rank provides the reputation-ranking layer GossipTrust [17] pairs
// with gossip aggregation and the paper cites as the efficient-ranking
// architecture: a Bloom filter per reputation bucket, so a node can test
// "is peer j in the top bucket?" in O(hashes) with a few bytes per peer
// instead of shipping full sorted vectors, plus an exact top-k selector for
// the experiments.
package rank

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// Bloom is a fixed-size Bloom filter over peer ids.
type Bloom struct {
	bits   []uint64
	m      uint64 // number of bits
	hashes int
}

// NewBloom sizes a filter for n expected entries at the given false-positive
// rate.
func NewBloom(n int, fpRate float64) (*Bloom, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rank: bloom capacity %d", n)
	}
	if fpRate <= 0 || fpRate >= 1 {
		return nil, fmt.Errorf("rank: false-positive rate %v out of (0,1)", fpRate)
	}
	// Standard sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
	mf := -float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)
	m := uint64(math.Ceil(mf))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(mf / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &Bloom{
		bits:   make([]uint64, (m+63)/64),
		m:      m,
		hashes: k,
	}, nil
}

// indices derives the k bit positions for id with double hashing over FNV-1a.
func (b *Bloom) indices(id int) []uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(id))
	h := fnv.New64a()
	h.Write(buf[:])
	h1 := h.Sum64()
	h.Write(buf[:])
	h2 := h.Sum64() | 1 // odd, so it cycles all positions
	out := make([]uint64, b.hashes)
	for i := range out {
		out[i] = (h1 + uint64(i)*h2) % b.m
	}
	return out
}

// Add inserts a peer id.
func (b *Bloom) Add(id int) {
	for _, idx := range b.indices(id) {
		b.bits[idx/64] |= 1 << (idx % 64)
	}
}

// Contains reports (probabilistically) whether id was added. False positives
// occur at roughly the configured rate; false negatives never.
func (b *Bloom) Contains(id int) bool {
	for _, idx := range b.indices(id) {
		if b.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// Bits returns the filter size in bits (for overhead accounting).
func (b *Bloom) Bits() int { return int(b.m) }

// Ranking buckets a reputation vector into bands and answers membership
// queries through per-band Bloom filters — GossipTrust's space-efficient
// ranking structure.
type Ranking struct {
	cuts    []float64 // ascending band lower bounds, cuts[0] = 0
	filters []*Bloom
	counts  []int
}

// NewRanking builds a ranking from the reputation vector rep with the given
// band boundaries (ascending values in (0,1); e.g. {0.25, 0.5, 0.75} makes
// four bands). fpRate sizes the per-band Bloom filters.
func NewRanking(rep []float64, bounds []float64, fpRate float64) (*Ranking, error) {
	if len(rep) == 0 {
		return nil, fmt.Errorf("rank: empty reputation vector")
	}
	for i, b := range bounds {
		if b <= 0 || b >= 1 {
			return nil, fmt.Errorf("rank: bound %v out of (0,1)", b)
		}
		if i > 0 && bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("rank: bounds not ascending at %d", i)
		}
	}
	r := &Ranking{cuts: append([]float64{0}, bounds...)}
	r.filters = make([]*Bloom, len(r.cuts))
	r.counts = make([]int, len(r.cuts))
	for i := range r.filters {
		f, err := NewBloom(len(rep), fpRate)
		if err != nil {
			return nil, err
		}
		r.filters[i] = f
	}
	for id, v := range rep {
		band := r.bandOf(v)
		r.filters[band].Add(id)
		r.counts[band]++
	}
	return r, nil
}

// bandOf returns the band index containing value v.
func (r *Ranking) bandOf(v float64) int {
	band := 0
	for i := len(r.cuts) - 1; i >= 0; i-- {
		if v >= r.cuts[i] {
			band = i
			break
		}
	}
	return band
}

// NumBands returns the number of reputation bands.
func (r *Ranking) NumBands() int { return len(r.cuts) }

// BandCount returns how many peers landed in band i.
func (r *Ranking) BandCount(i int) int { return r.counts[i] }

// InBand reports (probabilistically) whether peer id is in band i.
func (r *Ranking) InBand(id, band int) bool {
	if band < 0 || band >= len(r.filters) {
		return false
	}
	return r.filters[band].Contains(id)
}

// BandOfPeer scans bands from the top and returns the first band whose
// filter contains id (the Bloom false-positive rate applies).
func (r *Ranking) BandOfPeer(id int) int {
	for band := len(r.filters) - 1; band >= 0; band-- {
		if r.filters[band].Contains(id) {
			return band
		}
	}
	return 0
}

// TopK returns the ids of the k highest-reputation peers (exact, ties broken
// by lower id), used by the experiments to cross-check the filter answers.
func TopK(rep []float64, k int) []int {
	ids := make([]int, len(rep))
	for i := range ids {
		ids[i] = i
	}
	slices.SortStableFunc(ids, func(a, b int) int {
		if rep[a] > rep[b] || rep[a] == rep[b] && a < b {
			return -1
		}
		return 1
	})
	if k > len(ids) {
		k = len(ids)
	}
	if k < 0 {
		k = 0
	}
	return ids[:k]
}
