package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"diffgossip/internal/scenario"
	"diffgossip/internal/sim"
)

// parseScenarioSpec turns the -scenario flag's comma-separated k=v spec into
// a scenario config. Example:
//
//	-scenario "crash=0.1,join=0.1,loss=0.2,rounds=250"
//	-scenario "leave=0.05,partition=0.3,partition-span=30,partition-at=40"
//	-scenario "target=cluster,crash=0.1,rejoin=0.1,loss=0.2,rounds=40"
//	-scenario "target=service,crash=0.2,rejoin=0.1,collude=0.1,lie=1"
//
// Unset keys keep the scenario package's defaults; -n and -seed supply the
// size and seed.
func parseScenarioSpec(spec string, n int, seed uint64) (scenario.Config, error) {
	cfg := scenario.Config{N: n, Seed: seed}
	if cfg.N == 0 {
		cfg.N = 1000
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("scenario spec: %q is not key=value", part)
		}
		num := func() (float64, error) { return strconv.ParseFloat(val, 64) }
		integer := func() (int, error) { return strconv.Atoi(val) }
		var err error
		switch key {
		case "target":
			cfg.Target, err = scenario.ParseTargetKind(val)
		case "rounds":
			cfg.Rounds, err = integer()
		case "epsilon":
			cfg.Epsilon, err = num()
		case "loss":
			cfg.LossProb, err = num()
		case "crash":
			cfg.Plan.CrashFrac, err = num()
		case "join":
			cfg.Plan.JoinFrac, err = num()
		case "leave":
			cfg.Plan.LeaveFrac, err = num()
		case "rejoin":
			cfg.Plan.RejoinFrac, err = num()
		case "collude":
			cfg.Plan.ColludeFrac, err = num()
		case "collude-at":
			cfg.Plan.ColludeRound, err = integer()
		case "lie":
			cfg.Plan.ColludeLie, err = num()
		case "partition":
			cfg.Plan.PartitionFrac, err = num()
		case "partition-span":
			cfg.Plan.PartitionSpan, err = integer()
		case "partition-at":
			cfg.Plan.PartitionRound, err = integer()
		case "epoch-every":
			cfg.EpochEvery, err = integer()
		default:
			return cfg, fmt.Errorf("scenario spec: unknown key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("scenario spec: %s: %w", key, err)
		}
	}
	if cfg.Plan.PartitionFrac > 0 && cfg.Plan.PartitionSpan == 0 {
		return cfg, fmt.Errorf("scenario spec: partition needs partition-span")
	}
	return cfg, nil
}

// runScenario executes one scenario and prints its summary table followed by
// the full deterministic event log. Output is a pure function of the spec,
// -n and -seed, which the golden tests rely on.
func runScenario(w io.Writer, spec string, n int, seed uint64, csv bool) error {
	cfg, err := parseScenarioSpec(spec, n, seed)
	if err != nil {
		return err
	}
	res, err := scenario.Run(cfg)
	if err != nil {
		return err
	}
	t := &sim.Table{
		Title: fmt.Sprintf("Scenario: target=%s N=%d seed=%d", cfg.Target, cfg.N, cfg.Seed),
		Columns: []string{"rounds", "converged", "alive", "n_final", "joins", "crashes",
			"leaves", "rejoins", "colluders", "final_err", "mass_drift", "violations"},
	}
	t.Append(res.Rounds, res.Converged, res.Alive, res.N, res.Joins, res.Crashes,
		res.Leaves, res.Rejoins, res.Colluders,
		fmt.Sprintf("%.2e", res.FinalErr), fmt.Sprintf("%.2e", res.MaxMassErr), len(res.Violations))
	if csv {
		// CSV mode keeps the stream machine-parseable: the summary row
		// only. The violation count is a summary column; replay the same
		// spec without -csv for the event log and violation detail.
		return t.RenderCSV(w)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "event log (%d entries):\n", len(res.Log))
	for _, line := range res.Log {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
	return nil
}
