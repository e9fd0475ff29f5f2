package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunEachExperimentQuick(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "scaling", "factor", "whitewash", "baselines", "profile", "churn"} {
		t.Run(exp, func(t *testing.T) {
			var buf bytes.Buffer
			// n=120 keeps the collusion/factor runs fast; quick shrinks
			// the size sweeps.
			if err := run(&buf, exp, 1, 120, true, false); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", 1, 0, true, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCSVMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table2", 1, 0, true, true); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(first, ",") {
		t.Fatalf("csv output missing commas: %q", first)
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("all-experiments run in short mode")
	}
	var buf bytes.Buffer
	if err := run(&buf, "all", 1, 100, true, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Scaling", "damping"} {
		if !strings.Contains(out, want) {
			t.Fatalf("all-run missing %q", want)
		}
	}
}

// TestScenarioVectorTargetRefused pins that the vector engine is no scenario
// target: it runs only on a static overlay, so the spec is refused with the
// names of the targets that exist.
func TestScenarioVectorTargetRefused(t *testing.T) {
	var buf bytes.Buffer
	err := runScenario(&buf, "target=vector,crash=0.1,rounds=10", 30, 1, false)
	if err == nil || !strings.Contains(err.Error(), "scalar|service|cluster") {
		t.Fatalf("target=vector: error %v, want one naming scalar|service|cluster", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("target=vector printed output: %q", buf.String())
	}
}
