package service

import (
	"context"
	"path/filepath"
	"testing"

	"diffgossip/internal/store"
)

// lwwPair builds two replicating services over the same graph and params,
// differing only in their origin identity — the two replicas of a cluster,
// minus the wire.
func lwwPair(t *testing.T, n int) (*Service, *Service) {
	t.Helper()
	mk := func(origin string) *Service {
		return newTestService(t, n, Config{
			Graph:  testGraph(t, n, 7),
			Origin: origin,
		})
	}
	return mk("node-a"), mk("node-b")
}

// reputationsEqual asserts two services serve bit-identical reputations for
// every subject.
func reputationsEqual(t *testing.T, a, b *Service) {
	t.Helper()
	for subject := 0; subject < a.N(); subject++ {
		ra, _, err := a.Reputation(subject)
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.Reputation(subject)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Fatalf("subject %d: a=%v b=%v (not bit-identical)", subject, ra, rb)
		}
	}
}

// TestLWWOppositeArrivalOrders is the convergence keystone: two replicas
// receive conflicting writes to the same (rater, subject) cell in opposite
// orders — each accepts one locally and the other's via replication — and
// must fold to identical state, because conflicts resolve by the
// (timestamp, origin, origin seq) total order, not arrival order.
func TestLWWOppositeArrivalOrders(t *testing.T) {
	a, b := lwwPair(t, 16)

	// a accepts the older write locally, b the newer one.
	seqA, err := a.SubmitCtx(context.Background(), 1, 2, 0.25, 100)
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := b.SubmitCtx(context.Background(), 1, 2, 0.75, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-replicate: a sees the newer write second (applies), b sees the
	// older write second (must lose the fold despite arriving last).
	if _, err := a.ApplyReplicated([]store.Feedback{{Origin: "node-b", OriginSeq: seqB, Rater: 1, Subject: 2, Value: 0.75, UnixNano: 200}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyReplicated([]store.Feedback{{Origin: "node-a", OriginSeq: seqA, Rater: 1, Subject: 2, Value: 0.25, UnixNano: 100}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	reputationsEqual(t, a, b)
}

// TestLWWTimestampTieBreaksOnOrigin pins the tie-break: identical
// timestamps resolve by origin id (then origin seq), so even pathological
// clock collisions converge.
func TestLWWTimestampTieBreaksOnOrigin(t *testing.T) {
	a, b := lwwPair(t, 16)

	seqA, err := a.SubmitCtx(context.Background(), 3, 5, 0.1, 500)
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := b.SubmitCtx(context.Background(), 3, 5, 0.9, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyReplicated([]store.Feedback{{Origin: "node-b", OriginSeq: seqB, Rater: 3, Subject: 5, Value: 0.9, UnixNano: 500}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ApplyReplicated([]store.Feedback{{Origin: "node-a", OriginSeq: seqA, Rater: 3, Subject: 5, Value: 0.1, UnixNano: 500}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	reputationsEqual(t, a, b)

	// "node-b" > "node-a" in the total order, so 0.9 must be the winner on
	// both: compare against a third service that only ever saw the winner.
	c := newTestService(t, 16, Config{
		Graph:  testGraph(t, 16, 7),
		Origin: "node-c",
	})
	if _, err := c.ApplyReplicated([]store.Feedback{{Origin: "node-b", OriginSeq: seqB, Rater: 3, Subject: 5, Value: 0.9, UnixNano: 500}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	reputationsEqual(t, a, c)
}

// TestLWWTagsSurviveRestart proves the winners' stamps survive a restart in
// the frozen columns of the persisted segments: a write folded before a
// restart still beats an older conflicting write that arrives after it.
func TestLWWTagsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Service {
		s, err := New(Config{
			Graph:  testGraph(t, 16, 7),
			Dir:    filepath.Join(dir, "data"),
			Origin: "node-a",
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mk()
	if _, err := s.SubmitCtx(context.Background(), 4, 6, 0.8, 900); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	want, _, err := s.Reputation(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mk()
	defer s.Close()
	// An older conflicting write straggles in after the restart; without
	// the persisted stamps it would clobber the folded winner.
	if _, err := s.ApplyReplicated([]store.Feedback{{Origin: "node-b", OriginSeq: 1, Rater: 4, Subject: 6, Value: 0.2, UnixNano: 100}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Reputation(6)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reputation after restart + stale write = %v, want %v", got, want)
	}
}
