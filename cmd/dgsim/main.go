// Command dgsim regenerates every table and figure of the paper's evaluation
// (§5.3). Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Usage:
//
//	dgsim -exp table1                          # §4.2 worked example
//	dgsim -exp table2                          # messages per node per step
//	dgsim -exp fig3 -quick                     # steps vs N (quick sizes)
//	dgsim -exp fig4 -n 10000                   # steps vs ξ under loss
//	dgsim -exp fig5 -n 500                     # group collusion RMS error
//	dgsim -exp fig6 -n 500                     # individual collusion
//	dgsim -exp scaling                         # Theorem 5.1/5.2 check
//	dgsim -exp factor                          # eq. (17) damping check
//	dgsim -exp all -quick                      # everything, small sizes
//
// Flags -csv, -seed, -n and -quick adjust output format, determinism and
// scale. Everything dgsim prints is a count (steps, messages, RMS error);
// timed measurements live in benchmark/ (see docs/BENCH.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"diffgossip/internal/sim"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: table1|table2|fig3|fig4|fig5|fig6|scaling|factor|whitewash|baselines|profile|churn|all")
		seed  = flag.Uint64("seed", 42, "random seed (all experiments are deterministic given the seed)")
		n     = flag.Int("n", 0, "override network size where applicable (fig4/fig5/fig6/factor/whitewash/baselines/profile/churn/scenario)")
		quick = flag.Bool("quick", false, "use reduced sweeps (N up to 1000) for fast runs")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		scen  = flag.String("scenario", "", "run one churn/fault scenario instead of experiments; comma-separated spec, e.g. \"crash=0.1,join=0.1,loss=0.2,rounds=250\" (keys: target, rounds, epsilon, loss, crash, join, leave, rejoin, collude, collude-at, lie, partition, partition-span, partition-at, epoch-every)")
	)
	flag.Parse()

	if *scen != "" {
		if err := runScenario(os.Stdout, *scen, *n, *seed, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "dgsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *exp, *seed, *n, *quick, *csv); err != nil {
		fmt.Fprintf(os.Stderr, "dgsim: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, seed uint64, n int, quick, csv bool) error {
	render := func(t *sim.Table) error {
		defer fmt.Fprintln(w)
		if csv {
			return t.RenderCSV(w)
		}
		return t.Render(w)
	}
	sizes := sim.DefaultSizes
	if quick {
		sizes = []int{100, 500, 1000}
	}

	runOne := func(name string) error {
		switch name {
		case "table1":
			res, err := sim.RunTable1(sim.Table1Config{Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.Table1Table(res))
		case "table2":
			rows, err := sim.RunTable2(sim.Table2Config{Sizes: sizes, Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.Table2Table(rows))
		case "fig3":
			rows, err := sim.RunFig3(sim.Fig3Config{Sizes: sizes, Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.Fig3Table(rows))
		case "fig4":
			size := n
			if size == 0 {
				size = 10000
				if quick {
					size = 1000
				}
			}
			rows, err := sim.RunFig4(sim.Fig4Config{N: size, Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.Fig4Table(rows))
		case "fig5":
			size := n
			if size == 0 {
				size = 500
				if quick {
					size = 200
				}
			}
			rows, err := sim.RunCollusion(sim.CollusionConfig{N: size, Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.Fig5Table(rows, "Figure 5: avg RMS error, group collusion"))
		case "fig6":
			size := n
			if size == 0 {
				size = 500
				if quick {
					size = 200
				}
			}
			rows, err := sim.RunCollusion(sim.CollusionConfig{
				N: size, GroupSizes: []int{1}, Seed: seed,
			})
			if err != nil {
				return err
			}
			return render(sim.Fig5Table(rows, "Figure 6: avg RMS error, individual collusion"))
		case "scaling":
			rows, err := sim.RunScaling(sizes, 1e-4, seed)
			if err != nil {
				return err
			}
			return render(sim.ScalingTable(rows))
		case "factor":
			size := n
			if size == 0 {
				size = 300
			}
			rows, err := sim.RunCollusionFactor(size, 0.3, 5, seed)
			if err != nil {
				return err
			}
			return render(sim.FactorTable(rows))
		case "profile":
			size := n
			if size == 0 {
				size = 10000
				if quick {
					size = 1000
				}
			}
			points, err := sim.RunProfile(sim.ProfileConfig{N: size, Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.ProfileTable(points))
		case "baselines":
			size := n
			if size == 0 {
				size = 200
				if quick {
					size = 120
				}
			}
			rows, err := sim.RunBaselineCollusion(sim.BaselineCollusionConfig{N: size, Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.BaselineTable(rows))
		case "whitewash":
			size := n
			if size == 0 {
				size = 150
				if quick {
					size = 100
				}
			}
			rows, err := sim.RunWhitewash(sim.WhitewashConfig{N: size, Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.WhitewashTable(rows))
		case "churn":
			size := n
			if size == 0 {
				size = 1000
				if quick {
					size = 300
				}
			}
			rows, err := sim.RunChurn(sim.ChurnConfig{N: size, Seed: seed})
			if err != nil {
				return err
			}
			return render(sim.ChurnTable(rows))
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if exp == "all" {
		for _, name := range []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "scaling", "factor", "whitewash", "baselines", "profile", "churn"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(exp)
}
