// Package diffgossip is the public API of the Differential Gossip Trust
// library — a reproduction of "Reputation Aggregation in Peer-to-Peer Network
// Using Differential Gossip Algorithm" (Gupta & Singh).
//
// The library computes reputations in unstructured peer-to-peer networks by
// gossip aggregation. Its differential push rule — each node pushes to
// k = round(degree / average-neighbour-degree) random neighbours per step —
// converges in O((log2 N)²) steps on power-law (preferential attachment)
// overlays where classic one-push gossip stalls at high-degree nodes, without
// requiring the pulls or power-node discovery that push–pull needs.
//
// # Quick start
//
//	g, _ := diffgossip.NewPANetwork(1000, 2, 42)     // power-law overlay
//	t := diffgossip.NewTrustMatrix(1000)             // direct-interaction trust
//	t.Set(3, 7, 0.9)                                 // node 3 trusts node 7
//	...
//	res, _ := diffgossip.AggregateGlobalAll(g, t, diffgossip.Params{Epsilon: 1e-4, Seed: 1})
//	fmt.Println(res.Reputation[0][7])                // node 0's view of node 7
//
// # Aggregation variants
//
// Four variants mirror the paper's §4.1.2:
//
//   - AggregateGlobal: global reputation of one subject (Algorithm 1).
//   - AggregateGCLR: globally calibrated local reputation of one subject
//     (Algorithm 2) — neighbours' direct feedback enters with confidence
//     weights w = a^(b·t), so each node gets a personalised estimate.
//   - AggregateGlobalAll / AggregateGCLRAll: the same for all subjects
//     simultaneously, gossiping whole vectors.
//
// GlobalReference and GCLRReference evaluate the exact fixed points
// centrally, for testing and error measurement.
//
// # Long-running service
//
// Service wraps the aggregation engines in a continuously available
// reputation service: an append-only feedback ledger, a background epoch
// scheduler, and lock-free snapshot reads. See NewService, the cmd/dgserve
// HTTP daemon, and the examples/service example.
//
// # Distributed deployment
//
// The same protocol runs over real sockets: see the internal/agent and
// internal/transport packages, the cmd/dgnode binary, and the
// examples/distributed example.
package diffgossip

import (
	"diffgossip/internal/core"
	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/trust"
)

// Graph is an undirected overlay topology. See NewPANetwork, NewNetwork and
// Figure2Network for constructors.
type Graph = graph.Graph

// TrustMatrix holds the sparse direct-interaction trust values t_ij ∈ [0,1].
type TrustMatrix = trust.Matrix

// WeightParams are the confidence-weight parameters (a, b) of w = a^(b·t)
// (paper eq. 2) used by the GCLR variants.
type WeightParams = trust.WeightParams

// Params configures an aggregation run; the zero value gets sensible defaults
// (ξ = 1e-4, weights a=10/b=1, differential push, root node 0).
type Params = core.Params

// SingleResult is the outcome of a single-subject aggregation.
type SingleResult = core.SingleResult

// AllResult is the outcome of an all-subjects aggregation.
type AllResult = core.AllResult

// SubjectsResult is the outcome of a subject-subset aggregation
// (AggregateGlobalSubjects).
type SubjectsResult = core.SubjectsResult

// Messages tallies the protocol's transmissions.
type Messages = gossip.Messages

// Protocol selects the gossip push rule.
type Protocol = gossip.Protocol

// Push-rule choices for Params.Protocol.
const (
	// DifferentialPush is the paper's protocol (default).
	DifferentialPush = gossip.DifferentialPush
	// NormalPush is the classic one-push baseline.
	NormalPush = gossip.NormalPush
	// FixedPush pushes to Params.FixedK neighbours every step.
	FixedPush = gossip.FixedPush
	// CeilPush rounds the fan-out ratio up instead of to nearest.
	CeilPush = gossip.CeilPush
)

// DefaultWeightParams is the library default a=10, b=1: weights span [1, 10]
// as trust goes 0 → 1.
var DefaultWeightParams = trust.DefaultWeightParams

// NewPANetwork grows a power-law overlay of n nodes by preferential
// attachment with m edges per arriving node (the paper analyses m >= 2).
func NewPANetwork(n, m int, seed uint64) (*Graph, error) {
	return graph.PreferentialAttachment(graph.PAConfig{N: n, M: m, Seed: seed})
}

// NewNetwork returns an empty overlay on n nodes; add edges with AddEdge.
func NewNetwork(n int) *Graph { return graph.New(n) }

// Figure2Network returns the paper's 10-node worked-example topology.
func Figure2Network() *Graph { return graph.Figure2() }

// NewTrustMatrix returns an empty trust matrix over n nodes.
func NewTrustMatrix(n int) *TrustMatrix { return trust.NewMatrix(n) }

// AggregateGlobal runs Algorithm 1: every node converges to subject's mean
// direct trust over its raters.
func AggregateGlobal(g *Graph, t *TrustMatrix, subject int, p Params) (*SingleResult, error) {
	return core.GlobalSingle(g, t, subject, p)
}

// AggregateGCLR runs Algorithm 2: each node gets a personalised, confidence-
// weighted estimate of the subject's reputation.
func AggregateGCLR(g *Graph, t *TrustMatrix, subject int, p Params) (*SingleResult, error) {
	return core.GCLRSingle(g, t, subject, p)
}

// AggregateGlobalAll runs variant 3: Algorithm 1 for all subjects at once.
func AggregateGlobalAll(g *Graph, t *TrustMatrix, p Params) (*AllResult, error) {
	return core.GlobalAll(g, t, p)
}

// AggregateGCLRAll runs variant 4: Algorithm 2 for all subjects at once.
func AggregateGCLRAll(g *Graph, t *TrustMatrix, p Params) (*AllResult, error) {
	return core.GCLRAll(g, t, p)
}

// AggregateGlobalSubjects runs Algorithm 1 for an arbitrary subject subset:
// one independent per-subject gossip campaign each, with randomness split by
// subject id, so any partition of the subject space reproduces
// AggregateGlobalAll's values for those subjects bit for bit. This is the
// primitive behind the sharded service's incremental epochs.
func AggregateGlobalSubjects(g *Graph, t *TrustMatrix, subjects []int, p Params) (*SubjectsResult, error) {
	return core.GlobalSubjects(g, t, subjects, p)
}

// TrustReader is what the reference evaluations read — a subject's column and
// a node's row: a TrustMatrix, a frozen shard column set, or a service View.
type TrustReader = trust.Reader

// GlobalReference computes Algorithm 1's exact fixed point centrally.
func GlobalReference(t TrustReader, subject int) float64 {
	return core.GlobalRef(t, subject)
}

// GCLRReference computes Algorithm 2's exact fixed point at one observer
// centrally. The fixed point depends on trust alone; g is not read.
func GCLRReference(g *Graph, t TrustReader, observer, subject int, p Params) float64 {
	return core.GCLRRef(t, observer, subject, p)
}
