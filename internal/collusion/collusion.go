// Package collusion implements the attack model of the paper's §5.2 and the
// machinery behind Figures 5 and 6: a subset C of nodes colludes in groups of
// size G; inside a group members report each other's reputation as 1, and
// they report 0 for everyone outside. Collusion only affects the values
// pushed into the gossip phase — direct experience and neighbour feedback
// stay honest, matching the paper's assumptions.
package collusion

import (
	"fmt"
	"math"

	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// Model describes one collusion scenario.
type Model struct {
	// N is the network size.
	N int
	// Fraction is |C|/N, the colluding share of the population.
	Fraction float64
	// GroupSize is G; 1 models individual colluders (Figure 6).
	GroupSize int
	// Seed places the colluders deterministically.
	Seed uint64
}

// Validate rejects impossible scenarios.
func (m Model) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("collusion: N=%d", m.N)
	}
	if m.Fraction < 0 || m.Fraction > 1 {
		return fmt.Errorf("collusion: fraction %v out of [0,1]", m.Fraction)
	}
	if m.GroupSize < 1 {
		return fmt.Errorf("collusion: group size %d < 1", m.GroupSize)
	}
	return nil
}

// Assignment is a concrete placement of colluders.
type Assignment struct {
	// Colluder[i] reports whether node i colludes.
	Colluder []bool
	// Group[i] is the colluding group id of node i, or -1.
	Group []int
	// Members[g] lists the members of group g.
	Members [][]int
}

// NumColluders returns |C|.
func (a *Assignment) NumColluders() int {
	c := 0
	for _, b := range a.Colluder {
		if b {
			c++
		}
	}
	return c
}

// Assign samples the colluding set and partitions it into groups of
// Model.GroupSize (the last group may be smaller).
func (m Model) Assign() (*Assignment, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(m.Seed)
	c := int(math.Round(m.Fraction * float64(m.N)))
	ids := src.Sample(m.N, c)
	a := &Assignment{
		Colluder: make([]bool, m.N),
		Group:    make([]int, m.N),
	}
	for i := range a.Group {
		a.Group[i] = -1
	}
	for idx, id := range ids {
		g := idx / m.GroupSize
		a.Colluder[id] = true
		a.Group[id] = g
		for g >= len(a.Members) {
			a.Members = append(a.Members, nil)
		}
		a.Members[g] = append(a.Members[g], id)
	}
	return a, nil
}

// Reported builds the matrix of values the network will gossip, exactly as
// the paper's expectation analysis (eqs. 9–10) models the attack:
//
//   - honest nodes report their true direct trust;
//   - a colluder replaces every rating it actually holds with 0 (its honest
//     contribution Σ_{i∈C} t_ij vanishes from eq. 9's numerator);
//   - a colluder additionally reports 1 for every member of its own group
//     (the +G term of eq. 10).
//
// Colluders do not invent rater status for unrelated subjects — that keeps
// the rater-count denominator comparable between the honest and attacked
// runs, as eq. (11) assumes a fixed denominator N.
func (a *Assignment) Reported(honest *trust.Matrix) (*trust.Matrix, error) {
	n := honest.N()
	if len(a.Colluder) != n {
		return nil, fmt.Errorf("collusion: assignment over %d nodes, matrix over %d", len(a.Colluder), n)
	}
	out := trust.NewMatrix(n)
	var ids []int
	var vals []float64
	for i := 0; i < n; i++ {
		ids, vals = honest.RowInto(i, ids[:0], vals[:0])
		if !a.Colluder[i] {
			for k, j := range ids {
				if err := out.Set(i, j, vals[k]); err != nil {
					return nil, err
				}
			}
			continue
		}
		for _, j := range ids {
			if err := out.Set(i, j, 0); err != nil {
				return nil, err
			}
		}
		for _, j := range a.Members[a.Group[i]] {
			if j == i {
				continue
			}
			if err := out.Set(i, j, 1); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ExpectedDeltaOld evaluates the paper's eq. (12): the expected gap between
// real and estimated reputation of subject j under plain (unweighted) gossip
// aggregation,
//
//	ΔR_old = −GC/N² + Σ_{i∈C} t_ij / N.
func ExpectedDeltaOld(honest *trust.Matrix, a *Assignment, j int) float64 {
	n := float64(honest.N())
	g := 0.0
	if len(a.Members) > 0 {
		g = float64(len(a.Members[0]))
	}
	c := float64(a.NumColluders())
	sum := 0.0
	for i, isC := range a.Colluder {
		if isC {
			sum += honest.Value(i, j)
		}
	}
	return -g*c/(n*n) + sum/n
}

// DampingFactor evaluates the paper's eq. (17) multiplier: with confidence
// weights w_oi >= 1 at observer o, the collusion error shrinks to
//
//	ΔR_new = N / (N + Σ_i (w_oi − 1)) · ΔR_old.
//
// nbrs is o's interaction set (trust.Matrix.InteractedWith) — nodes o never
// transacted with have weight exactly 1 and contribute nothing to the sum.
func DampingFactor(honest *trust.Matrix, o int, nbrs []int, p trust.WeightParams) float64 {
	n := float64(honest.N())
	sum := 0.0
	for _, i := range nbrs {
		if t, ok := honest.Get(o, i); ok {
			sum += p.Weight(t) - 1
		}
	}
	return n / (n + sum)
}
