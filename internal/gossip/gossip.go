// Package gossip implements the paper's diffusion layer: synchronous
// push-sum gossip over an arbitrary graph with either the classic one-push
// protocol or the paper's differential push (k_i pushes per step, k_i =
// round(deg_i / avgNeighbourDeg_i)), plus rumor-spreading simulators for the
// push / pull / push–pull comparison behind Theorem 5.1.
//
// The engine is the substrate for every reputation-aggregation variant in
// internal/core and for the Figure 3/4 and Table 1/2 experiments. It is
// deterministic given a seed, injects packet loss with the paper's
// mass-conserving self-push recovery, and accounts for every message so the
// Table 2 overhead numbers can be regenerated.
package gossip

import (
	"fmt"
	"math"

	"diffgossip/internal/graph"
)

// Protocol selects the fan-out rule of the averaging engine.
type Protocol int

const (
	// DifferentialPush is the paper's contribution: node i pushes to
	// k_i = max(1, round(deg_i / avgNbrDeg_i)) random neighbours per step,
	// keeping a 1/(k_i+1) share for itself.
	DifferentialPush Protocol = iota
	// NormalPush is classic push-sum (Kempe et al.): one push per step.
	NormalPush
	// FixedPush pushes to a constant fan-out K regardless of degree; used
	// by the ablation benchmarks.
	FixedPush
	// CeilPush is DifferentialPush with ceiling instead of round — an
	// ablation on the paper's rounding choice.
	CeilPush
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case DifferentialPush:
		return "differential-push"
	case NormalPush:
		return "normal-push"
	case FixedPush:
		return "fixed-push"
	case CeilPush:
		return "ceil-push"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Sentinel is the ratio placeholder the paper assigns to nodes whose gossip
// weight is still zero ("otherwise u <- 10"): an impossible ratio for values
// in [0,1], so such nodes can never satisfy the convergence test spuriously.
const Sentinel = 10.0

// Config parameterises a gossip run.
type Config struct {
	// Graph is the topology; it must be non-empty. The engine never
	// mutates it.
	Graph *graph.Graph
	// Protocol selects the push rule. Default DifferentialPush.
	Protocol Protocol
	// FixedK is the fan-out used by FixedPush (>= 1).
	FixedK int
	// Epsilon is the paper's ξ: a node considers itself converged when its
	// ratio moves by at most ξ between steps (and it heard from somebody).
	Epsilon float64
	// LossProb is the probability that any single push to a neighbour is
	// lost (churn model, Figure 4). The sender detects the missing ack and
	// pushes the share to itself, preserving mass.
	LossProb float64
	// MaxSteps bounds the run; 0 means a generous default of 64·(log2 N)²+64.
	MaxSteps int
	// Seed drives all randomness.
	Seed uint64
	// MinSteps forces at least this many steps before convergence is
	// honoured; 0 means no floor. (Useful when initial values make the
	// ratio trivially stable for a step or two.)
	MinSteps int
	// Workers parallelises the vector engine's per-step work across this
	// many goroutines (the accumulation is deterministic regardless).
	// 0 or 1 runs sequentially; negative selects GOMAXPROCS. Note the
	// convention differs from the sim sweep runners' Workers fields
	// (Fig3Config and friends), where 0 selects GOMAXPROCS and 1 is the
	// sequential setting.
	Workers int
}

// Validate reports whether every engine accepts c: a non-empty graph, ξ > 0,
// a loss probability in [0,1), FixedK >= 1 under FixedPush and no negative
// step bound.
func (c *Config) Validate() error {
	if c.Graph == nil || c.Graph.N() == 0 {
		return fmt.Errorf("gossip: empty graph")
	}
	if c.Epsilon <= 0 {
		return fmt.Errorf("gossip: epsilon %v must be > 0", c.Epsilon)
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("gossip: loss probability %v out of [0,1)", c.LossProb)
	}
	if c.Protocol == FixedPush && c.FixedK < 1 {
		return fmt.Errorf("gossip: FixedPush requires FixedK >= 1, got %d", c.FixedK)
	}
	if c.MaxSteps < 0 || c.MinSteps < 0 {
		return fmt.Errorf("gossip: negative step bounds")
	}
	return nil
}

func (c *Config) maxSteps() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	l := math.Log2(float64(c.Graph.N()) + 1)
	return 64*int(l*l) + 64
}

// fanouts precomputes each node's per-step push count under the configured
// protocol.
func (c *Config) fanouts() []int {
	n := c.Graph.N()
	ks := make([]int, n)
	for u := 0; u < n; u++ {
		switch c.Protocol {
		case NormalPush:
			ks[u] = 1
		case FixedPush:
			ks[u] = c.FixedK
		case CeilPush:
			avg := c.Graph.AvgNeighborDegree(u)
			if avg == 0 {
				ks[u] = 1
			} else if r := float64(c.Graph.Degree(u)) / avg; r <= 1 {
				ks[u] = 1
			} else {
				ks[u] = int(math.Ceil(r))
			}
		default: // DifferentialPush
			ks[u] = c.Graph.DifferentialK(u)
		}
		if d := c.Graph.Degree(u); ks[u] > d && d > 0 {
			ks[u] = d // cannot push to more distinct neighbours than exist
		}
	}
	return ks
}

// Pair is the paper's gossip pair: Y is the value mass, G the weight mass.
// The running estimate at a node is Y/G once G > 0.
type Pair struct {
	Y, G float64
}

// add accumulates q into p.
func (p *Pair) add(q Pair) {
	p.Y += q.Y
	p.G += q.G
}

// ratio returns Y/G, or Sentinel when G == 0.
func (p Pair) ratio() float64 {
	if p.G == 0 {
		return Sentinel
	}
	return p.Y / p.G
}

// Messages tallies every transmission class of a run, so network overhead
// (Table 2) can be reconstructed exactly.
type Messages struct {
	// Setup counts the pre-round pushes: each node sending its degree to
	// every neighbour, and (when the caller registers them) the direct
	// feedback pushes of Algorithm 2.
	Setup int
	// Gossip counts pushes of gossip pairs to other nodes, including ones
	// lost to churn (the transmission cost is paid either way). Self
	// deliveries are free and not counted.
	Gossip int
	// Announce counts convergence announcements to neighbours.
	Announce int
	// Lost counts gossip pushes dropped by the loss model (subset of
	// Gossip).
	Lost int
	// ActiveNodeSteps counts (node, step) pairs in which the node actually
	// pushed — nodes whose whole neighbourhood has converged pause and do
	// not transmit.
	ActiveNodeSteps int
}

// Total returns all paid transmissions.
func (m Messages) Total() int { return m.Setup + m.Gossip + m.Announce }

// PerNodePerStep is the Table 2 metric: the number of messages a gossiping
// node transmits per step, with the setup pushes (degree/feedback exchange)
// and convergence announcements amortised over all N·steps node-steps. The
// paper reports this settling at ≈1.1–1.2 for PA graphs with m=2 and drifting
// down as N and the step count grow.
func (m Messages) PerNodePerStep(n, steps int) float64 {
	if n == 0 || steps == 0 {
		return 0
	}
	overhead := float64(m.Setup+m.Announce) / (float64(n) * float64(steps))
	if m.ActiveNodeSteps == 0 {
		return overhead
	}
	return float64(m.Gossip)/float64(m.ActiveNodeSteps) + overhead
}
