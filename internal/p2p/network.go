package p2p

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"diffgossip/internal/rng"
)

// Network owns the peers, routes messages between their goroutines and
// advances the simulation in rounds. A round has two phases, each ending
// quiescent: query flooding (queries spread, hits travel back) and transfer
// (requesters pick a holder, holders serve according to reputation,
// requesters grade the service). Messages are processed on the peers' own
// goroutines, and a round's outcome never depends on their interleaving:
// flood reach is the TTL ball around the origin whichever copy arrives
// first, holders serve their queued requests in requester order, and the
// Network settles the transfers in peer order.
type Network struct {
	cfg     Config
	peers   []*Peer
	popular []float64 // resource popularity weights

	inflight sync.WaitGroup // tracks undelivered/unprocessed messages
	querySeq atomic.Int64

	statsMu sync.Mutex
	stats   Stats

	closed bool
}

// NewNetwork builds the network, seeds resources and behavioural roles, and
// starts one goroutine per peer.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	root := rng.New(cfg.Seed)
	net := &Network{
		cfg:     cfg,
		peers:   make([]*Peer, n),
		popular: zipfWeights(cfg.NumResources, cfg.ZipfExponent),
	}
	for i := 0; i < n; i++ {
		src := root.Split()
		free := src.Bool(cfg.FreeRiderFrac)
		var decency float64
		if free {
			decency = src.Beta(1, 8)
		} else {
			decency = src.Beta(4, 2)
		}
		p := newPeer(i, decency, free, src)
		p.strangerPrior = cfg.StrangerPrior
		// Seed the catalogue with popularity-weighted resources.
		for len(p.resources) < cfg.ResourcesPerPeer {
			p.resources[sampleWeighted(net.popular, src)] = true
		}
		net.peers[i] = p
	}
	for _, p := range net.peers {
		go net.serve(p)
	}
	return net, nil
}

// N returns the number of peers.
func (net *Network) N() int { return len(net.peers) }

// Peer returns the i-th peer (for inspection in tests and examples).
func (net *Network) Peer(i int) *Peer { return net.peers[i] }

// Stats returns a copy of the accumulated counters.
func (net *Network) Stats() Stats {
	net.statsMu.Lock()
	defer net.statsMu.Unlock()
	return net.stats
}

// Close shuts down all peer goroutines. The network must be quiescent (only
// call after Round has returned).
func (net *Network) Close() {
	if net.closed {
		return
	}
	net.closed = true
	for _, p := range net.peers {
		close(p.done)
	}
}

// serve is the peer goroutine: it processes mailbox messages until shutdown.
func (net *Network) serve(p *Peer) {
	for {
		select {
		case m := <-p.inbox:
			net.handle(p, m)
			net.inflight.Done()
		case <-p.done:
			return
		}
	}
}

// send routes an overlay message to peer "to", counting it.
func (net *Network) send(to int, m message) {
	net.statsMu.Lock()
	net.stats.MessagesRouted++
	net.statsMu.Unlock()
	net.deliver(to, m)
}

// deliver queues m in peer to's mailbox. The inflight counter is balanced by
// the peer goroutine (Network.serve); a full mailbox falls back to a detached
// sender so routing can never deadlock the handler goroutines.
func (net *Network) deliver(to int, m message) {
	net.inflight.Add(1)
	p := net.peers[to]
	select {
	case p.inbox <- m:
	default:
		go func() { p.inbox <- m }()
	}
}

// handle dispatches one message on the owning peer's goroutine.
func (net *Network) handle(p *Peer, m message) {
	switch {
	case m.query != nil:
		net.handleQuery(p, m.query)
	case m.hit != nil:
		p.mu.Lock()
		p.hits[m.hit.queryID] = append(p.hits[m.hit.queryID], m.hit.holder)
		p.mu.Unlock()
	case m.request != nil:
		p.mu.Lock()
		p.requests = append(p.requests, *m.request)
		p.mu.Unlock()
	case m.response != nil:
		p.mu.Lock()
		p.responses = append(p.responses, *m.response)
		p.mu.Unlock()
	case m.serve:
		net.serveRequests(p)
	}
}

// handleQuery answers a query's first copy with a hit when p holds the
// resource, and forwards every copy that arrives with more TTL left than any
// before it — so a copy that took a long path first cannot shrink the reach.
func (net *Network) handleQuery(p *Peer, q *queryMsg) {
	p.mu.Lock()
	best, seen := p.seenTTL[q.id]
	if seen && q.ttl <= best {
		p.mu.Unlock()
		return
	}
	p.seenTTL[q.id] = q.ttl
	holds := p.resources[q.resource]
	p.mu.Unlock()

	if !seen && holds && p.id != q.origin {
		net.send(q.origin, message{hit: &hitMsg{queryID: q.id, holder: p.id}})
	}
	if q.ttl > 0 {
		fwd := *q
		fwd.ttl--
		for _, v := range net.cfg.Graph.Neighbors(p.id) {
			net.send(v, message{query: &fwd})
		}
	}
}

// serveRequests answers p's queued requests in requester order, so the
// holder's quality draws never depend on which request arrived first.
func (net *Network) serveRequests(p *Peer) {
	p.mu.Lock()
	reqs := p.requests
	p.requests = nil
	sort.Slice(reqs, func(a, b int) bool {
		if reqs[a].requester != reqs[b].requester {
			return reqs[a].requester < reqs[b].requester
		}
		return reqs[a].queryID < reqs[b].queryID
	})
	out := make([]responseMsg, len(reqs))
	for k, r := range reqs {
		quality := 0.0
		if p.resources[r.resource] {
			quality = p.serviceQuality(r.requester, &net.cfg)
		}
		out[k] = responseMsg{queryID: r.queryID, holder: p.id, resource: r.resource, quality: quality}
	}
	p.mu.Unlock()
	for k := range out {
		net.send(reqs[k].requester, message{response: &out[k]})
	}
}

// Round advances the simulation one round: query issuance and flooding, then
// holder selection and transfers. It blocks until the network is quiescent.
func (net *Network) Round() error {
	if net.closed {
		return fmt.Errorf("p2p: network closed")
	}
	// Phase 1: issue queries.
	issued := 0
	for _, p := range net.peers {
		p.mu.Lock()
		wants := p.src.Bool(net.cfg.QueriesPerRound)
		var res int
		if wants {
			// Pick a popular resource the peer lacks (bounded retries:
			// a peer holding everything stays quiet).
			found := false
			for try := 0; try < 8; try++ {
				res = sampleWeighted(net.popular, p.src)
				if !p.resources[res] {
					found = true
					break
				}
			}
			wants = found
		}
		if !wants {
			p.mu.Unlock()
			continue
		}
		id := net.querySeq.Add(1)
		p.want[id] = res
		p.mu.Unlock()
		issued++
		net.send(p.id, message{query: &queryMsg{
			id: id, origin: p.id, resource: res, ttl: net.cfg.QueryTTL,
		}})
	}
	net.statsMu.Lock()
	net.stats.Queries += issued
	net.statsMu.Unlock()
	net.inflight.Wait()

	// Phase 2: pick responders and transfer.
	for _, p := range net.peers {
		p.mu.Lock()
		type pick struct {
			queryID  int64
			holder   int
			resource int
		}
		// Query-id order: chooseHolder's tie draws must not follow the
		// map's iteration order.
		ids := make([]int64, 0, len(p.hits))
		for id := range p.hits {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		var picks []pick
		for _, id := range ids {
			holders := p.hits[id]
			res, ok := p.want[id]
			if !ok || len(holders) == 0 {
				continue
			}
			best := net.chooseHolder(p, holders)
			picks = append(picks, pick{queryID: id, holder: best, resource: res})
		}
		hit := len(picks)
		p.mu.Unlock()

		net.statsMu.Lock()
		net.stats.Hits += hit
		net.statsMu.Unlock()
		for _, pk := range picks {
			net.send(pk.holder, message{request: &requestMsg{
				queryID: pk.queryID, requester: p.id, resource: pk.resource,
			}})
		}
	}
	net.inflight.Wait()
	for _, p := range net.peers {
		net.deliver(p.id, message{serve: true})
	}
	net.inflight.Wait()

	// Settle the transfers peer by peer, so the quality sums accumulate in
	// one fixed order, and expire leftover round state (unanswered queries
	// included).
	net.statsMu.Lock()
	defer net.statsMu.Unlock()
	for _, p := range net.peers {
		p.mu.Lock()
		sort.Slice(p.responses, func(a, b int) bool { return p.responses[a].queryID < p.responses[b].queryID })
		for _, r := range p.responses {
			p.recordTransaction(r.holder, r.quality)
			if r.quality > 0 {
				p.resources[r.resource] = true
			}
			net.stats.Transfers++
			if p.free {
				net.stats.TransfersFreeRider++
				net.stats.QualitySumFreeRider += r.quality
			} else {
				net.stats.TransfersHonest++
				net.stats.QualitySumHonest += r.quality
			}
		}
		p.responses = p.responses[:0]
		clear(p.want)
		clear(p.hits)
		clear(p.seenTTL)
		p.mu.Unlock()
	}
	return nil
}

// chooseHolder selects the most reputable responder, breaking ties randomly.
// Callers must hold p.mu.
func (net *Network) chooseHolder(p *Peer, holders []int) int {
	sort.Ints(holders)
	best := holders[0]
	bestRep := -1.0
	for _, h := range holders {
		rep, known := p.reputationOf(h)
		if !known {
			rep = 0.25 // neutral prior for strangers, above known-bad peers
		}
		if rep > bestRep || (rep == bestRep && p.src.Bool(0.5)) {
			best, bestRep = h, rep
		}
	}
	return best
}

// RunRounds advances the simulation r rounds.
func (net *Network) RunRounds(r int) error {
	for i := 0; i < r; i++ {
		if err := net.Round(); err != nil {
			return err
		}
	}
	return nil
}

// ResetIdentity models whitewashing: peer i rejoins under a fresh identity,
// so every other peer forgets its direct experience with i and the
// aggregated reputation entry for i becomes unknown. The peer keeps its
// resources and behaviour — only its history is laundered. Only call between
// rounds (the network must be quiescent).
func (net *Network) ResetIdentity(i int) error {
	if i < 0 || i >= len(net.peers) {
		return fmt.Errorf("p2p: peer %d out of range", i)
	}
	for _, p := range net.peers {
		p.mu.Lock()
		delete(p.estimators, i)
		if i < len(p.globalRep) {
			p.globalRep[i] = 0
		}
		p.mu.Unlock()
	}
	return nil
}
