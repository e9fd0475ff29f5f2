package p2p

import (
	"sync"

	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// message is the union of overlay message kinds. Exactly one pointer field is
// set.
type message struct {
	query    *queryMsg
	hit      *hitMsg
	request  *requestMsg
	response *responseMsg
	serve    bool // serve the queued requests
}

// queryMsg floods the overlay looking for a resource.
type queryMsg struct {
	id       int64 // unique query id for duplicate suppression
	origin   int
	resource int
	ttl      int
}

// hitMsg travels straight back to the origin (overlay networks answer
// out-of-band over the underlay).
type hitMsg struct {
	queryID int64
	holder  int
}

// requestMsg asks the holder to transfer the resource.
type requestMsg struct {
	queryID   int64
	requester int
	resource  int
}

// responseMsg delivers the resource with a service quality in [0,1];
// quality 0 means the holder refused.
type responseMsg struct {
	queryID  int64
	holder   int
	resource int
	quality  float64
}

// Peer is one participant. Behavioural state is guarded by mu because the
// peer's goroutine, the router and the Network's snapshot methods all touch
// it.
type Peer struct {
	id            int
	decency       float64 // ground-truth service quality this peer delivers
	free          bool    // free rider flag
	strangerPrior float64 // reputation granted to unknown peers

	mu         sync.Mutex
	resources  map[int]bool
	estimators map[int]*trust.Estimator // direct trust per counterparty
	globalRep  []float64                // last aggregated reputation vector
	seenTTL    map[int64]int            // highest TTL seen per flooded query
	hits       map[int64][]int          // responders per outstanding query
	want       map[int64]int            // resource wanted per outstanding query
	requests   []requestMsg             // transfer requests awaiting a serve
	responses  []responseMsg            // transfers awaiting settlement

	src   *rng.Source
	inbox chan message
	done  chan struct{}
}

// newPeer constructs a peer with its own random stream and mailbox.
func newPeer(id int, decency float64, free bool, src *rng.Source) *Peer {
	return &Peer{
		id:         id,
		decency:    decency,
		free:       free,
		resources:  make(map[int]bool),
		estimators: make(map[int]*trust.Estimator),
		seenTTL:    make(map[int64]int),
		hits:       make(map[int64][]int),
		want:       make(map[int64]int),
		src:        src,
		inbox:      make(chan message, 4096),
		done:       make(chan struct{}),
	}
}

// ID returns the peer id.
func (p *Peer) ID() int { return p.id }

// Decency returns the peer's ground-truth service quality.
func (p *Peer) Decency() float64 { return p.decency }

// IsFreeRider reports whether the peer was assigned the free-riding role.
func (p *Peer) IsFreeRider() bool { return p.free }

// NumResources returns the peer's current catalogue size.
func (p *Peer) NumResources() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.resources)
}

// TrustIn returns the peer's direct trust estimate for peer j and whether any
// transaction backs it.
func (p *Peer) TrustIn(j int) (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	est, ok := p.estimators[j]
	if !ok || est.Count() == 0 {
		return 0, false
	}
	return est.Value(), true
}

// reputationOf combines direct experience with the aggregated global vector:
// direct experience wins when present (the paper's first mechanism),
// otherwise the gossip-aggregated value is used. With neither, the
// configured stranger prior applies: 0 keeps the peer "unknown" (the paper's
// whitewash-proof default), anything higher grants strangers that standing.
func (p *Peer) reputationOf(j int) (rep float64, known bool) {
	if est, ok := p.estimators[j]; ok && est.Count() > 0 {
		return est.Value(), true
	}
	if j < len(p.globalRep) && p.globalRep[j] > 0 {
		return p.globalRep[j], true
	}
	if p.strangerPrior > 0 {
		return p.strangerPrior, true
	}
	return 0, false
}

// recordTransaction folds a delivered quality into the estimator for j.
func (p *Peer) recordTransaction(j int, quality float64) {
	est, ok := p.estimators[j]
	if !ok {
		est, _ = trust.NewEstimator(trust.EstimatorConfig{Prior: 0, Discount: 0.98})
		p.estimators[j] = est
	}
	// quality is clamped by construction; Record only errors on NaN or
	// out-of-range input, which would be a simulator bug.
	if err := est.Record(quality); err != nil {
		panic("p2p: invalid transaction quality: " + err.Error())
	}
}

// serviceQuality decides how well this peer serves the requester, given the
// requester's reputation: the reputation-gated allocation of §3. Free riders
// defect regardless of who asks.
func (p *Peer) serviceQuality(requester int, cfg *Config) float64 {
	if p.free {
		// Free riders serve at their (near-zero) decency only
		// occasionally.
		if p.src.Bool(0.2) {
			return p.decency * p.src.Float64()
		}
		return 0
	}
	rep, known := p.reputationOf(requester)
	if !known {
		// Stranger: bootstrap allowance.
		if p.src.Bool(cfg.ServeUnknownProb) {
			return p.noisyDecency()
		}
		return 0
	}
	if rep >= cfg.ReputationThreshold {
		return p.noisyDecency()
	}
	// Below threshold: degrade proportionally — the incentive gradient
	// that rewards contribution.
	return p.noisyDecency() * (rep / cfg.ReputationThreshold)
}

// noisyDecency is the peer's decency with small observation noise.
func (p *Peer) noisyDecency() float64 {
	q := p.decency + 0.05*p.src.NormFloat64()
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}
