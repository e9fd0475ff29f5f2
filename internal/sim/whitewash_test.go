package sim

import (
	"bytes"
	"reflect"
	"testing"
)

func TestRunWhitewash(t *testing.T) {
	cfg := WhitewashConfig{
		N:          100,
		Priors:     []float64{0, 0.6},
		Rounds:     24,
		ResetEvery: 4,
		Seed:       31,
	}
	rows, err := RunWhitewash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The peers run on goroutines; the rows must not depend on how they
	// interleave.
	again, err := RunWhitewash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Fatalf("same seed, different rows:\n%+v\n%+v", rows, again)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HonestTransfers == 0 {
			t.Fatalf("no honest transfers measured at prior %v", r.Prior)
		}
		if r.HonestQuality <= 0 || r.HonestQuality > 1 {
			t.Fatalf("honest quality %v at prior %v", r.HonestQuality, r.Prior)
		}
	}
	// The headline: a higher stranger prior raises the whitewashing payoff
	// (the paper's reason for starting identities at zero).
	if rows[0].Advantage >= 1 {
		t.Fatalf("prior 0: whitewashing paid off (advantage %v)", rows[0].Advantage)
	}
	if rows[1].Advantage <= rows[0].Advantage {
		t.Fatalf("higher prior did not raise the payoff: %v vs %v",
			rows[1].Advantage, rows[0].Advantage)
	}
}

func TestRunWhitewashValidation(t *testing.T) {
	if _, err := RunWhitewash(WhitewashConfig{N: -1}); err == nil {
		t.Fatal("negative N accepted")
	}
}

func TestWhitewashTable(t *testing.T) {
	rows := []WhitewashRow{{Prior: 0.3, HonestQuality: 0.5, WhitewasherQuality: 0.2, Advantage: 0.4}}
	var buf bytes.Buffer
	if err := WhitewashTable(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
