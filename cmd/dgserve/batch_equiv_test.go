package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/rng"
	"diffgossip/internal/service"
)

// TestBatchSingleEquivalence is the batch-ingest correctness property: a set
// of ratings with pinned LWW stamps folds to bit-identical reputations no
// matter how it arrives — one-by-one in submission order on a standalone
// reference, or shuffled, chopped into mixed single/batch requests (array
// and JSON-lines encodings both), and split across two federated replicas.
// Batching is an ingest optimization; it must be invisible to the trust
// computation.
func TestBatchSingleEquivalence(t *testing.T) {
	const n = 32
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: n, M: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	// The workload: distinct unix_nano stamps (so last-writer-wins resolves
	// identically everywhere, independent of arrival order and origin
	// tie-breaks), with every fourth rating re-rating the previous pair —
	// real LWW conflicts, not just disjoint cells.
	type rating struct {
		rater, subject int
		value          float64
		ts             int64
	}
	src := rng.New(99)
	ratings := make([]rating, 80)
	for i := range ratings {
		ratings[i] = rating{src.Intn(n), src.Intn(n), src.Float64(), int64(1_000_000 + i*1000)}
	}
	for i := 3; i < len(ratings); i += 4 {
		ratings[i].rater, ratings[i].subject = ratings[i-1].rater, ratings[i-1].subject
	}

	// Reference: a standalone replica-configured service fed every rating
	// singly, in submission order.
	ref, err := service.New(service.Config{
		Graph:  g,
		Params: core.Params{Epsilon: 1e-6, Seed: 3},
		Shards: 2, Origin: "ref",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, r := range ratings {
		if _, err := ref.SubmitCtx(context.Background(), r.rater, r.subject, r.value, r.ts); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ref.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	// Cluster: two federated replicas; the same ratings shuffled, cut into
	// random runs, and sent alternately to A and B — runs of one as single
	// POSTs, longer runs as batches, alternating array and JSON-lines bodies.
	tsA, svcA, _, tra := newClusterMember(t, g, nil)
	tsB, svcB, _, trb := newClusterMember(t, g, []string{tra.Addr()})

	shuffled := append([]rating(nil), ratings...)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	var sentA, sentB uint64
	for i, flip := 0, 0; i < len(shuffled); flip++ {
		run := 1 + src.Intn(7)
		if i+run > len(shuffled) {
			run = len(shuffled) - i
		}
		target, counter := tsA.URL, &sentA
		if flip%2 == 1 {
			target, counter = tsB.URL, &sentB
		}
		if run == 1 {
			r := shuffled[i]
			body := fmt.Sprintf(`{"rater":%d,"subject":%d,"value":%v,"unix_nano":%d}`, r.rater, r.subject, r.value, r.ts)
			resp, b := postJSON(t, target+"/v1/feedback", body)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("single status %d: %s", resp.StatusCode, b)
			}
		} else {
			var body bytes.Buffer
			lines := flip%4 >= 2 // alternate JSON-lines and array encodings
			if !lines {
				body.WriteByte('[')
			}
			for k := 0; k < run; k++ {
				if k > 0 {
					if lines {
						body.WriteByte('\n')
					} else {
						body.WriteByte(',')
					}
				}
				r := shuffled[i+k]
				fmt.Fprintf(&body, `{"rater":%d,"subject":%d,"value":%v,"unix_nano":%d}`, r.rater, r.subject, r.value, r.ts)
			}
			if !lines {
				body.WriteByte(']')
			}
			resp, err := http.Post(target+"/v1/feedback/batch", "application/json", &body)
			if err != nil {
				t.Fatal(err)
			}
			var br batchResponse
			decodeBody(t, resp, &br)
			if resp.StatusCode != http.StatusAccepted || br.Accepted != run {
				t.Fatalf("batch status %d accepted %d, want 202/%d", resp.StatusCode, br.Accepted, run)
			}
		}
		*counter += uint64(run)
		i += run
	}

	if sentA == 0 || sentB == 0 {
		t.Fatalf("degenerate split: %d to A, %d to B", sentA, sentB)
	}
	// Anti-entropy converges both ways (gossiped membership introduces A to
	// B), then both replicas fold. Origin-stream seqs live in the ledger's
	// global sequence space — replicated entries consume seqs too — so "B has
	// everything from A" means B's watermark for A reaches the seq of A's
	// LAST local entry, not the count of entries A accepted.
	lastA, lastB := svcA.ReplicationMark(svcA.Origin()), svcB.ReplicationMark(svcB.Origin())
	deadline := time.Now().Add(10 * time.Second)
	for svcB.ReplicationMarks()[tra.Addr()] < lastA || svcA.ReplicationMarks()[trb.Addr()] < lastB {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: A marks %v (want %d from B), B marks %v (want %d from A)",
				svcA.ReplicationMarks(), lastB, svcB.ReplicationMarks(), lastA)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, err := svcA.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svcB.RunEpoch(); err != nil {
		t.Fatal(err)
	}

	// Every subject: A == B == reference, to the bit.
	refView, viewA, viewB := ref.View(), svcA.View(), svcB.View()
	for j := 0; j < n; j++ {
		want, err := refView.Reputation(j)
		if err != nil {
			t.Fatal(err)
		}
		gotA, err := viewA.Reputation(j)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := viewB.Reputation(j)
		if err != nil {
			t.Fatal(err)
		}
		if gotA != want || gotB != want {
			t.Fatalf("subject %d: reference %v, A %v, B %v — batching changed the fold", j, want, gotA, gotB)
		}
	}
}

// decodeBody decodes a response body into v and closes it.
func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		t.Fatalf("bad body %q: %v", buf.String(), err)
	}
}
