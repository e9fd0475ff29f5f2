// Package p2p implements the workload substrate the paper's system model
// (§3) describes: an unstructured file-sharing network on a power-law
// overlay, where rational peers flood queries for resources, transfer files,
// grade each other's service quality into local trust values, and gate the
// service they offer on the requester's reputation — the mechanism that makes
// free riding unprofitable once reputation aggregation works.
//
// Peers run as goroutines exchanging typed messages through mailboxes; the
// simulation advances in rounds coordinated by the Network. The trust
// estimates the peers accumulate feed directly into the aggregation
// algorithms of internal/core, closing the loop the paper motivates.
package p2p

import (
	"fmt"
	"math"

	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// Config parameterises a file-sharing simulation.
type Config struct {
	// Graph is the overlay topology (typically graph.MustPA(n, 2, seed)).
	Graph *graph.Graph
	// NumResources is the size of the global resource catalogue.
	NumResources int
	// ResourcesPerPeer is how many distinct resources each peer seeds.
	ResourcesPerPeer int
	// ZipfExponent skews resource popularity (0 = uniform; Gnutella-like
	// workloads use ~0.8–1.2).
	ZipfExponent float64
	// QueryTTL is the flood horizon in overlay hops.
	QueryTTL int
	// QueriesPerRound is the expected number of peers issuing a query each
	// round, expressed as a probability per peer in [0,1].
	QueriesPerRound float64
	// FreeRiderFrac is the fraction of peers that free ride: they rarely
	// serve, and poorly.
	FreeRiderFrac float64
	// ServeUnknownProb is the probability a peer serves a stranger with no
	// reputation at all (the bootstrap allowance).
	ServeUnknownProb float64
	// ReputationThreshold gates service: requesters whose reputation falls
	// below it receive degraded service proportional to their reputation.
	ReputationThreshold float64
	// StrangerPrior is the reputation assumed for peers with no direct or
	// aggregated information. The paper sets it to 0 to defeat
	// whitewashing and notes a higher, dynamically adjusted value as an
	// open aspect; the whitewash experiment sweeps it.
	StrangerPrior float64
	// Seed drives all randomness.
	Seed uint64
}

func (c *Config) validate() error {
	if c.Graph == nil || c.Graph.N() == 0 {
		return fmt.Errorf("p2p: empty overlay graph")
	}
	if c.NumResources <= 0 || c.ResourcesPerPeer <= 0 {
		return fmt.Errorf("p2p: need positive resource counts")
	}
	if c.ResourcesPerPeer > c.NumResources {
		return fmt.Errorf("p2p: resources per peer %d exceeds catalogue %d", c.ResourcesPerPeer, c.NumResources)
	}
	if c.QueryTTL < 1 {
		return fmt.Errorf("p2p: TTL %d < 1", c.QueryTTL)
	}
	if c.QueriesPerRound < 0 || c.QueriesPerRound > 1 {
		return fmt.Errorf("p2p: queries per round %v out of [0,1]", c.QueriesPerRound)
	}
	if c.FreeRiderFrac < 0 || c.FreeRiderFrac > 1 {
		return fmt.Errorf("p2p: free rider fraction out of [0,1]")
	}
	if c.ServeUnknownProb < 0 || c.ServeUnknownProb > 1 {
		return fmt.Errorf("p2p: serve-unknown probability out of [0,1]")
	}
	if c.ReputationThreshold < 0 || c.ReputationThreshold > 1 {
		return fmt.Errorf("p2p: reputation threshold out of [0,1]")
	}
	if c.StrangerPrior < 0 || c.StrangerPrior > 1 {
		return fmt.Errorf("p2p: stranger prior out of [0,1]")
	}
	return nil
}

// DefaultConfig returns a workload close to the paper's narrative: heavy
// query load, TTL-limited flooding, a meaningful free-riding population.
func DefaultConfig(g *graph.Graph, seed uint64) Config {
	return Config{
		Graph:               g,
		NumResources:        200,
		ResourcesPerPeer:    8,
		ZipfExponent:        1.0,
		QueryTTL:            4,
		QueriesPerRound:     0.5,
		FreeRiderFrac:       0.25,
		ServeUnknownProb:    0.5,
		ReputationThreshold: 0.4,
		Seed:                seed,
	}
}

// Stats aggregates observable outcomes of the simulation, split by the
// requester's class so the free-riding suppression effect is measurable.
type Stats struct {
	// Queries and Hits count query issuance and successful resolution.
	Queries, Hits int
	// Transfers counts attempted downloads.
	Transfers int
	// QualitySumHonest / TransfersHonest give average delivered quality
	// for honest requesters; likewise for free riders.
	QualitySumHonest    float64
	TransfersHonest     int
	QualitySumFreeRider float64
	TransfersFreeRider  int
	// MessagesRouted counts every overlay message (queries, hits,
	// transfer requests and responses). Unlike the other counters it
	// depends on arrival order: a query copy that arrives with more TTL
	// left than an earlier one is forwarded again.
	MessagesRouted int
}

// HonestAvgQuality returns the mean quality honest requesters received.
func (s Stats) HonestAvgQuality() float64 {
	if s.TransfersHonest == 0 {
		return 0
	}
	return s.QualitySumHonest / float64(s.TransfersHonest)
}

// FreeRiderAvgQuality returns the mean quality free riders received.
func (s Stats) FreeRiderAvgQuality() float64 {
	if s.TransfersFreeRider == 0 {
		return 0
	}
	return s.QualitySumFreeRider / float64(s.TransfersFreeRider)
}

// zipfWeights returns unnormalised popularity weights for resources.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// sampleWeighted draws an index proportional to weights.
func sampleWeighted(weights []float64, src *rng.Source) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := src.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// TrustSnapshot extracts the current direct-interaction trust matrix across
// all peers — the input to the aggregation algorithms in internal/core.
func (n *Network) TrustSnapshot() *trust.Matrix {
	m := trust.NewMatrix(len(n.peers))
	for i, p := range n.peers {
		p.mu.Lock()
		for j, est := range p.estimators {
			// Only peers with at least one real transaction count as
			// raters (the paper's t_ij exists only after interaction).
			if est.Count() > 0 {
				if err := m.Set(i, j, est.Value()); err != nil {
					p.mu.Unlock()
					panic("p2p: estimator produced out-of-range trust: " + err.Error())
				}
			}
		}
		p.mu.Unlock()
	}
	return m
}

// SetGlobalReputation pushes an aggregated reputation vector to every peer;
// peers use it to gate service for strangers. rep[j] is the network-wide
// reputation of peer j.
func (n *Network) SetGlobalReputation(rep []float64) error {
	if len(rep) != len(n.peers) {
		return fmt.Errorf("p2p: reputation vector length %d, want %d", len(rep), len(n.peers))
	}
	for _, p := range n.peers {
		p.mu.Lock()
		p.globalRep = append(p.globalRep[:0], rep...)
		p.mu.Unlock()
	}
	return nil
}
