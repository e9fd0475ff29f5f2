package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"diffgossip/internal/gossip"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/trust"
)

// subjectsWorkload builds a moderately sparse rating workload: ~40% of the
// (rater, subject) pairs hold a value, a few subjects have no raters at all.
func subjectsWorkload(t *testing.T, n int, seed uint64) *trust.Matrix {
	t.Helper()
	src := rng.New(seed)
	tm := trust.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || j%13 == 7 { // subjects ≡7 mod 13 stay unrated
				continue
			}
			if src.Bool(0.4) {
				if err := tm.Set(i, j, src.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return tm
}

// TestGlobalSubjectsPartitionInvariant is the core half of the sharding
// acceptance criterion: computing the subject space in ANY partition (S ∈
// {1, 4, 17} modulo shards), at any worker count, reproduces GlobalAll's
// values bit for bit — per-subject randomness split by subject id makes a
// subject's campaign independent of everything around it.
func TestGlobalSubjectsPartitionInvariant(t *testing.T) {
	const n = 60
	g, tm := denseWorkload(t, n, 0.3, 91)
	_ = tm
	tm = subjectsWorkload(t, n, 92)
	p := params(1e-6, 93)

	all, err := GlobalAll(g, tm, p)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4, 17} {
		for _, workers := range []int{0, 3, -1} {
			ps := p
			ps.Workers = workers
			got := make([][]float64, n) // got[j] = column j
			for sh := 0; sh < shards; sh++ {
				var subjects []int
				for j := sh; j < n; j += shards {
					subjects = append(subjects, j)
				}
				res, err := GlobalSubjects(g, tm, subjects, ps)
				if err != nil {
					t.Fatal(err)
				}
				for k, j := range res.Subjects {
					got[j] = res.Columns[k]
				}
			}
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					if got[j][i] != all.Reputation[i][j] {
						t.Fatalf("S=%d workers=%d subject %d node %d: sharded %v != GlobalAll %v",
							shards, workers, j, i, got[j][i], all.Reputation[i][j])
					}
				}
			}
		}
	}
}

// TestGlobalSubjectsFromFrozenColumns: folding from a frozen trust.Columns
// slice produces exactly what folding from the live matrix does — the
// service freezes shard columns before folding.
func TestGlobalSubjectsFromFrozenColumns(t *testing.T) {
	const n = 40
	g, _ := denseWorkload(t, n, 0.3, 51)
	tm := subjectsWorkload(t, n, 52)
	p := params(1e-6, 53)
	subjects := []int{1, 5, 7, 12, 33, 39}

	cols, err := trust.ColumnsOf(tm, subjects)
	if err != nil {
		t.Fatal(err)
	}
	a, err := GlobalSubjects(g, tm, subjects, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GlobalSubjects(g, cols, subjects, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := range subjects {
		for i := 0; i < n; i++ {
			if a.Columns[k][i] != b.Columns[k][i] {
				t.Fatalf("subject %d node %d: matrix %v != columns %v", subjects[k], i, a.Columns[k][i], b.Columns[k][i])
			}
		}
	}
	if a.Computed != b.Computed || a.Steps != b.Steps || a.Converged != b.Converged {
		t.Fatalf("metadata drifted: %+v vs %+v", a, b)
	}
}

// TestGlobalSubjectsSkipsUnratedSubjects: subjects nobody rated produce a
// zero column and run no campaign.
func TestGlobalSubjectsSkipsUnrated(t *testing.T) {
	const n = 30
	g, _ := denseWorkload(t, n, 0.3, 61)
	tm := trust.NewMatrix(n)
	if err := tm.Set(2, 9, 0.7); err != nil {
		t.Fatal(err)
	}
	res, err := GlobalSubjects(g, tm, []int{7, 9, 20}, params(1e-6, 62))
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 1 {
		t.Fatalf("Computed = %d, want 1 (only subject 9 is rated)", res.Computed)
	}
	for _, k := range []int{0, 2} { // subjects 7 and 20
		for i := 0; i < n; i++ {
			if res.Columns[k][i] != 0 {
				t.Fatalf("unrated subject %d has non-zero estimate at node %d", res.Subjects[k], i)
			}
		}
	}
	if !res.Converged {
		t.Fatal("run did not converge")
	}
}

// TestGlobalSubjectsValidates rejects malformed subject sets.
func TestGlobalSubjectsValidates(t *testing.T) {
	g, tm := denseWorkload(t, 20, 0.3, 71)
	p := params(1e-6, 72)
	if _, err := GlobalSubjects(g, tm, []int{3, 3}, p); err == nil {
		t.Error("duplicate subject accepted")
	}
	if _, err := GlobalSubjects(g, tm, []int{-1}, p); err == nil {
		t.Error("negative subject accepted")
	}
	if _, err := GlobalSubjects(g, tm, []int{20}, p); err == nil {
		t.Error("out-of-range subject accepted")
	}
	if res, err := GlobalSubjects(g, tm, nil, p); err != nil || len(res.Columns) != 0 {
		t.Errorf("empty subject set should be a trivial success, got (%v, %v)", res, err)
	}
}

// pinnedFixture builds the TestGlobalSubjectsPinnedDigest workload: a PA
// graph and a seeded trust matrix whose subjects cover every campaign shape
// — unrated (≡7 mod 13), single-rater (≡3 mod 13), a handful of raters
// (sparse-eligible at SparseRaterFrac 0.25) and ~half the network (dense).
func pinnedFixture(t *testing.T, n int) (*graph.Graph, *trust.Matrix) {
	t.Helper()
	g := graph.MustPA(n, 2, 7001)
	src := rng.New(7002)
	tm := trust.NewMatrix(n)
	for j := 0; j < n; j++ {
		density := 0.5
		switch {
		case j%13 == 7:
			continue
		case j%13 == 3:
			if err := tm.Set((j+5)%n, j, src.Float64()); err != nil {
				t.Fatal(err)
			}
			continue
		case j%2 == 0:
			density = 0.08
		}
		for i := 0; i < n; i++ {
			if i != j && src.Bool(density) {
				if err := tm.Set(i, j, src.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, tm
}

// subjectsDigest folds everything a GlobalSubjects run publishes — every
// column value, every recorded state mass, the step and message tallies and
// the warm/cold split — into one FNV-64a word.
func subjectsDigest(res *SubjectsResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, col := range res.Columns {
		for _, v := range col {
			word(math.Float64bits(v))
		}
	}
	for _, st := range res.States {
		if st == nil {
			word(0)
			continue
		}
		word(uint64(len(st.Y)))
		for i := range st.Y {
			word(math.Float64bits(st.Y[i]))
			word(math.Float64bits(st.G[i]))
		}
	}
	for _, v := range []int{
		res.TotalSteps, res.Steps, res.WarmStarts, res.ColdStarts,
		res.Messages.Setup, res.Messages.Gossip, res.Messages.Announce,
		res.Messages.Lost, res.Messages.ActiveNodeSteps,
	} {
		word(uint64(v))
	}
	return h.Sum64()
}

// TestGlobalSubjectsPinnedDigest is the absolute guard on the epoch path's
// bits: a fixed workload run cold, then warm from the cold run's recorded
// states after a small perturbation, must hash to constants captured at the
// commit before the per-subject campaigns moved from the m=1 VectorEngine
// to the scalar Engine — for sparse campaigns off and on, with and without
// packet loss, and at any worker count.
func TestGlobalSubjectsPinnedDigest(t *testing.T) {
	const n = 120
	rows := []struct {
		sparse, loss float64
		cold, warm   uint64
	}{
		{0, 0, 0x3914e6c2980c02cd, 0xd5fee3b3e035865d},
		{0.25, 0, 0x0f8e0a033d34e803, 0x54c0a1607e5c6949},
		{0, 0.2, 0xef9e296187f0bdab, 0x6f0b27184b18421e},
		{0.25, 0.2, 0x6ba43f38d98ce463, 0x65769276cbaf4636},
	}
	subjects := make([]int, n)
	for j := range subjects {
		subjects[j] = j
	}
	for _, row := range rows {
		for _, workers := range []int{0, -1} {
			g, tm := pinnedFixture(t, n)
			p := Params{
				Epsilon: 1e-6, Seed: 7003, KeepStates: true,
				SparseRaterFrac: row.sparse, LossProb: row.loss, Workers: workers,
			}
			cold, err := GlobalSubjects(g, tm, subjects, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := subjectsDigest(cold); got != row.cold {
				t.Errorf("sparse=%v loss=%v workers=%d: cold digest %#x, pinned %#x", row.sparse, row.loss, workers, got, row.cold)
			}

			// Perturb a few subjects — a changed value, a new rater, a removed
			// rater (forces a cold fallback) — and leave the rest untouched so
			// the unchanged-campaign republish path is in the digest too.
			src := rng.New(7004)
			for x := 0; x < 8; x++ {
				j := src.Intn(n)
				ids, _ := tm.RatersOfInto(j, nil, nil)
				if len(ids) == 0 {
					continue
				}
				switch x % 3 {
				case 0:
					err = tm.Set(ids[0], j, src.Float64())
				case 1:
					err = tm.Set((ids[len(ids)-1]+1)%n, j, src.Float64())
				default:
					tm = withoutCells(tm, func(i, k int) bool { return i == ids[0] && k == j })
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			p.Warm = func(j int) *gossip.CampaignState { return cold.States[j] }
			warm, err := GlobalSubjects(g, tm, subjects, p)
			if err != nil {
				t.Fatal(err)
			}
			if warm.WarmStarts == 0 || warm.ColdStarts == 0 {
				t.Fatalf("sparse=%v loss=%v: warm epoch ran %d warm / %d cold campaigns, want both", row.sparse, row.loss, warm.WarmStarts, warm.ColdStarts)
			}
			if got := subjectsDigest(warm); got != row.warm {
				t.Errorf("sparse=%v loss=%v workers=%d: warm digest %#x, pinned %#x", row.sparse, row.loss, workers, got, row.warm)
			}
		}
	}
}

// TestGlobalSubjectsAtRootMatchesColumns pins the two result shapes to one
// campaign body: GlobalSubjectsAtRoot builds no columns, and its AtRoot — like
// the full run's — is bit for bit what Columns[s][Root] holds, for every
// campaign kind (unrated, single-rater, sparse, dense; cold, warm and
// republished), with identical recorded states, steps and message tallies.
func TestGlobalSubjectsAtRootMatchesColumns(t *testing.T) {
	const n, root = 120, 5
	subjects := make([]int, n)
	for j := range subjects {
		subjects[j] = j
	}
	for _, sparse := range []float64{0, 0.25} {
		g, tm := pinnedFixture(t, n)
		p := Params{Epsilon: 1e-6, Seed: 7003, KeepStates: true, SparseRaterFrac: sparse, Root: root, Workers: -1}
		both := func(label string) *SubjectsResult {
			t.Helper()
			full, err := GlobalSubjects(g, tm, subjects, p)
			if err != nil {
				t.Fatal(err)
			}
			at, err := GlobalSubjectsAtRoot(g, tm, subjects, p)
			if err != nil {
				t.Fatal(err)
			}
			if at.Columns != nil {
				t.Fatalf("sparse=%v %s: root-only run built columns", sparse, label)
			}
			for s := range subjects {
				if full.AtRoot[s] != full.Columns[s][root] || at.AtRoot[s] != full.AtRoot[s] {
					t.Fatalf("sparse=%v %s subject %d: column[root] %v, AtRoot %v, root-only AtRoot %v",
						sparse, label, s, full.Columns[s][root], full.AtRoot[s], at.AtRoot[s])
				}
			}
			full.Columns = nil
			if a, b := subjectsDigest(at), subjectsDigest(full); a != b {
				t.Fatalf("sparse=%v %s: states and tallies differ between the shapes (%#x vs %#x)", sparse, label, a, b)
			}
			return at
		}
		cold := both("cold")
		// Change two ratings; every other campaign republishes its state.
		for _, j := range []int{10, 11} {
			ids, _ := tm.RatersOfInto(j, nil, nil)
			if err := tm.Set(ids[0], j, 0.123); err != nil {
				t.Fatal(err)
			}
		}
		p.Warm = func(j int) *gossip.CampaignState { return cold.States[j] }
		if warm := both("warm"); warm.WarmStarts == 0 || warm.TotalSteps == 0 {
			t.Fatalf("sparse=%v: warm pass ran %d warm campaigns in %d steps", sparse, warm.WarmStarts, warm.TotalSteps)
		}
	}
}

// TestDenseCampaignIsGlobalSingle states the paper-level identity: a cold
// dense campaign of GlobalSubjects IS Algorithm 1 on one subject — the same
// engine GlobalSingle runs, seeded with the subject's split stream — so the
// two agree bit for bit on estimates, steps, convergence and every message
// tally except Setup (the campaigns of an epoch share one degree exchange).
func TestDenseCampaignIsGlobalSingle(t *testing.T) {
	const n = 90
	g, _ := denseWorkload(t, n, 0.3, 81)
	tm := subjectsWorkload(t, n, 82)
	for _, loss := range []float64{0, 0.2} {
		p := params(1e-6, 83)
		p.LossProb = loss
		for _, j := range []int{0, 4, 34, 89} {
			sub, err := GlobalSubjects(g, tm, []int{j}, p)
			if err != nil {
				t.Fatal(err)
			}
			ps := p
			ps.Seed = subjectSeed(p.Seed, j)
			single, err := GlobalSingle(g, tm, j, ps)
			if err != nil {
				t.Fatal(err)
			}
			if sub.Steps != single.Steps || sub.Converged != single.Converged {
				t.Fatalf("loss=%v subject %d: campaign (steps=%d conv=%v) != GlobalSingle (steps=%d conv=%v)",
					loss, j, sub.Steps, sub.Converged, single.Steps, single.Converged)
			}
			want := single.Messages
			want.Setup = sub.Messages.Setup
			if sub.Messages != want {
				t.Fatalf("loss=%v subject %d: campaign messages %+v != GlobalSingle %+v", loss, j, sub.Messages, want)
			}
			for i := 0; i < n; i++ {
				if sub.Columns[0][i] != single.PerNode[i] {
					t.Fatalf("loss=%v subject %d node %d: campaign %v != GlobalSingle %v", loss, j, i, sub.Columns[0][i], single.PerNode[i])
				}
			}
		}
	}
}

// TestGlobalSubjectsChargesOneDegreeExchange: the campaigns of one call share
// a single degree exchange, so Setup is 2·M however many subjects ran, on
// either kind of campaign.
func TestGlobalSubjectsChargesOneDegreeExchange(t *testing.T) {
	const n = 40
	g, _ := denseWorkload(t, n, 0.3, 85)
	tm := subjectsWorkload(t, n, 86)
	for _, p := range []Params{params(1e-4, 87), sparseParams(1e-4, 87)} {
		for _, subjects := range [][]int{nil, {7}, {3}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
			res, err := GlobalSubjects(g, tm, subjects, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Messages.Setup != 2*g.M() {
				t.Fatalf("sparse=%v subjects=%v: Setup = %d, want 2·M = %d", p.SparseRaterFrac, subjects, res.Messages.Setup, 2*g.M())
			}
		}
	}
}
