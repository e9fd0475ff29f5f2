package sim

import (
	"math"

	"diffgossip/internal/gossip"
)

// ProfileConfig parameterises the convergence-profile experiment: the
// per-step decay of the worst-node error, which makes the paper's
// O((log2 N)² + log2 1/ξ) argument visible — a spreading phase while mass
// reaches every node, then geometric decay.
type ProfileConfig struct {
	// N is the network size (default 10000).
	N int
	// Steps is how many steps to trace (default 120).
	Steps int
	// Protocols to trace (default differential and normal push).
	Protocols []gossip.Protocol
	// Seed drives everything.
	Seed uint64
}

// ProfilePoint is one step of one protocol's trace.
type ProfilePoint struct {
	Protocol string
	Step     int
	// MaxError is max_i |estimate_i − true mean| after the step.
	MaxError float64
}

// RunProfile traces the worst-node error per gossip step.
func RunProfile(cfg ProfileConfig) ([]ProfilePoint, error) {
	if cfg.N == 0 {
		cfg.N = 10000
	}
	if err := checkPositive("network size", cfg.N); err != nil {
		return nil, err
	}
	if cfg.Steps == 0 {
		cfg.Steps = 120
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = []gossip.Protocol{gossip.DifferentialPush, gossip.NormalPush}
	}
	g, err := buildPA(cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	xs := uniformValues(cfg.N, cfg.Seed+1)
	truth := 0.0
	for _, x := range xs {
		truth += x
	}
	truth /= float64(cfg.N)

	g0 := make([]float64, cfg.N)
	for i := range g0 {
		g0[i] = 1
	}
	var out []ProfilePoint
	for _, proto := range cfg.Protocols {
		e, err := gossip.NewEngine(gossip.Config{
			Graph:    g,
			Protocol: proto,
			Epsilon:  1e-12, // effectively never stop: we drive Steps directly
			Seed:     cfg.Seed + 2,
		}, xs, g0)
		if err != nil {
			return nil, err
		}
		for s := 1; s <= cfg.Steps; s++ {
			e.Step()
			worst := 0.0
			for i := 0; i < cfg.N; i++ {
				if d := math.Abs(e.Estimate(i) - truth); d > worst {
					worst = d
				}
			}
			out = append(out, ProfilePoint{Protocol: proto.String(), Step: s, MaxError: worst})
		}
	}
	return out, nil
}

// ProfileTable formats the trace, thinning to every 5th step for readability.
func ProfileTable(points []ProfilePoint) *Table {
	t := &Table{
		Title:   "Convergence profile: worst-node error per gossip step",
		Columns: []string{"protocol", "step", "max_error"},
	}
	for _, p := range points {
		if p.Step%5 == 0 || p.Step == 1 {
			t.Append(p.Protocol, p.Step, p.MaxError)
		}
	}
	return t
}
