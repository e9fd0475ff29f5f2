package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/dgsim -run TestGolden -update
//
// Goldens pin the byte-exact output of dgsim at a fixed seed: every
// experiment runner derives its randomness from splittable seeded streams,
// so any drift here means a determinism regression (or an intentional
// change, in which case regenerate and review the diff). The committed
// files were generated on linux/amd64; Go permits fused multiply-add
// contraction on some other architectures, which can legitimately perturb
// low-order float digits there.
var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		name string
		run  func(w io.Writer) error
	}{
		// The worked example: ten nodes, every iteration printed.
		{"table1", func(w io.Writer) error { return run(w, "table1", 1, 0, true, false) }},
		// A size sweep in CSV mode (locks the CSV shape too).
		{"table2_csv", func(w io.Writer) error { return run(w, "table2", 1, 0, true, true) }},
		// Loss sweep at a reduced size.
		{"fig4", func(w io.Writer) error { return run(w, "fig4", 1, 300, true, false) }},
		// Theorem 5.1 flatness check at quick sizes.
		{"scaling", func(w io.Writer) error { return run(w, "scaling", 1, 0, true, false) }},
		// The churn grid (scenario engine under the sim harness).
		{"churn", func(w io.Writer) error { return run(w, "churn", 1, 200, true, false) }},
		// The all-subjects Alg. 2 runs (variant 4 on the vector engine).
		{"fig5", func(w io.Writer) error { return run(w, "fig5", 1, 60, true, false) }},
		{"fig6", func(w io.Writer) error { return run(w, "fig6", 1, 60, true, false) }},
		{"baselines", func(w io.Writer) error { return run(w, "baselines", 1, 60, true, false) }},
		{"factor", func(w io.Writer) error { return run(w, "factor", 1, 60, true, false) }},
		// One full scenario: summary plus the complete event log.
		{"scenario", func(w io.Writer) error {
			return runScenario(w, "crash=0.1,join=0.1,leave=0.05,loss=0.2,rounds=80,partition-span=15,partition-at=30,collude=0.1,collude-at=50,lie=1", 150, 7, false)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.run(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("output drifted from %s (regenerate with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s",
					path, truncateForDiff(buf.Bytes()), truncateForDiff(want))
			}
		})
	}
}

// truncateForDiff keeps failure messages readable for large outputs.
func truncateForDiff(b []byte) []byte {
	const max = 4096
	if len(b) <= max {
		return b
	}
	return append(append([]byte(nil), b[:max]...), []byte("\n... (truncated)")...)
}
