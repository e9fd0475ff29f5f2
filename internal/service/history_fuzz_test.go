package service

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"diffgossip/internal/core"
	"diffgossip/internal/store"
)

// histStamp is an accepted entry's last-writer-wins coordinate as the node
// stamps it: (timestamp, origin id, origin seq). newer is the test's own
// spelling of the order, so a fault in trust.Stamp.Before cannot hide
// behind a model that calls it.
type histStamp struct {
	ts     int64
	origin string
	seq    uint64
}

func (a histStamp) newer(b histStamp) bool {
	if a.ts != b.ts {
		return a.ts > b.ts
	}
	if a.origin != b.origin {
		return a.origin > b.origin
	}
	return a.seq >= b.seq
}

// histEntry is one entry the node accepted, with the stamp it folds under.
type histEntry struct {
	rater, subject int
	value          float64
	stamp          histStamp
}

// histProgram reads a fuzz input as a stream of bytes; reads past the end
// yield 0.
type histProgram struct {
	data []byte
	at   int
}

func (p *histProgram) next() int {
	if p.at >= len(p.data) {
		return 0
	}
	p.at++
	return int(p.data[p.at-1])
}

// histMaxOps bounds a program, so every input runs in bounded time.
const histMaxOps = 48

// FuzzServiceHistory runs a program of service operations over a persisted
// service and checks that the state it serves is a pure function of the
// entries it accepted. Every campaign runs cold from (Params.Seed, subject)
// and last-writer-wins is settled in the frozen columns, so after any
// history of epochs, reopens, reshards, compactions and bootstraps the node
// must serve what a fresh in-memory service fed the same accepted entries,
// with the same stamps, serves after folding them once.
//
// The header is three bytes: bit 0 of the first picks a replicating
// program, the second N ∈ [8,64], the third the shard count S ∈ [1,5]. Each
// op is one byte (mod 9) and its arguments:
//
//	0, 1  SubmitCtx(rater, subject, value/255, stamp 1..8)
//	2     SubmitBatch of 1..4 such entries; 1 in 4 batches carries an
//	      out-of-range value and must be refused whole
//	3     RunEpoch
//	4     reopen
//	5     reopen at shard count 1..5
//	6     CompactWAL
//	7     replicating: BootstrapState → InstallBootstrap into a new node
//	      (its own directory, origin and shard count 1..5), which the
//	      program then continues on; standalone: RunEpoch. With the top bit
//	      of the argument set the new node lags instead of starting fresh:
//	      it first applies a program-chosen prefix of each of the sender's
//	      streams (one byte per origin, in id order) and folds it, and the
//	      transfer is assembled against its marks
//	8     reopen under the next Params.Seed
//
// Stamps 1..8 make equal stamps and writes older than their cell common.
// After the program a final epoch drains the node, and then:
//
//   - every view cell equals an LWW model of the accepted entries;
//   - every personalised read, and the global read of every subject whose
//     shard has folded since the last seed change, is bit-identical to the
//     oracle's (a subject no fold has touched since keeps serving the value
//     an earlier seed computed, by design);
//   - LedgerSeq equals the count of entries the node's ledger holds, and a
//     standalone oracle assigns every entry the seq the node did;
//   - Pending is 0;
//   - a replicating node's marks and retained history equal those of the
//     same node reopened: the history is the WAL held in memory.
//
// A replicating program's oracle replicates too and is fed through
// ApplyReplicated under each entry's origin tags.
func FuzzServiceHistory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &histProgram{data: data}
		replicate := p.next()&1 == 1
		n := 8 + p.next()%57
		g := testGraph(t, n, 7)
		cfg := Config{Graph: g, Params: core.Params{Epsilon: 1e-4, Seed: 11}, Dir: t.TempDir(), Shards: 1 + p.next()%5}
		nodes := 0
		if replicate {
			cfg.Origin = "node-0"
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })

		var accepted []histEntry
		stale := make([]bool, n) // global read not yet recomputed under the current seed
		var wantSeq uint64       // entries the node's ledger holds
		accept := func(rater, subject int, value float64, ts int64, seq uint64) {
			accepted = append(accepted, histEntry{rater, subject, value, histStamp{ts, cfg.Origin, seq}})
			wantSeq++
		}
		entry := func() store.Feedback {
			return store.Feedback{Rater: p.next() % n, Subject: p.next() % n, Value: float64(p.next()) / 255, UnixNano: int64(1 + p.next()%8)}
		}
		epoch := func() {
			v, ran, err := s.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				return
			}
			for sh := 0; sh < v.Shards(); sh++ {
				if v.Shard(sh).Epoch == s.Epochs() {
					for _, j := range store.ShardSubjects(n, sh, v.Shards()) {
						stale[j] = false
					}
				}
			}
		}
		reopen := func() {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := New(cfg)
			if err != nil {
				t.Fatalf("reopen at S=%d: %v", cfg.Shards, err)
			}
			s = reopened
		}

		for op := 0; op < histMaxOps && p.at < len(p.data); op++ {
			switch p.next() % 9 {
			case 0, 1:
				fb := entry()
				seq, err := s.SubmitCtx(context.Background(), fb.Rater, fb.Subject, fb.Value, fb.UnixNano)
				if err != nil {
					t.Fatal(err)
				}
				accept(fb.Rater, fb.Subject, fb.Value, fb.UnixNano, seq)
			case 2:
				batch := make([]store.Feedback, 1+p.next()%4)
				for i := range batch {
					batch[i] = entry()
				}
				refuse := p.next()%4 == 0
				if refuse {
					batch[len(batch)-1].Value = 2
				}
				before := s.LedgerSeq()
				first, _, err := s.SubmitBatch(context.Background(), batch)
				if refuse {
					if err == nil || s.LedgerSeq() != before {
						t.Fatalf("batch with an out-of-range value: err %v, ledger seq %d -> %d", err, before, s.LedgerSeq())
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				for i, fb := range batch {
					accept(fb.Rater, fb.Subject, fb.Value, fb.UnixNano, first+uint64(i))
				}
			case 3:
				epoch()
			case 4:
				reopen()
			case 5:
				cfg.Shards = 1 + p.next()%5
				reopen()
			case 6:
				if _, err := s.CompactWAL(); err != nil {
					t.Fatal(err)
				}
			case 7:
				if !replicate {
					epoch()
					continue
				}
				arg := p.next()
				nodes++
				cfg.Dir, cfg.Origin, cfg.Shards = t.TempDir(), fmt.Sprintf("node-%d", nodes), 1+arg%5
				recv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Compaction drops superseded folded entries from the
				// sender's history, so the receiver holds what it applied
				// and what was shipped, not everything accepted.
				if wantSeq, err = bootstrapInto(p, s, recv, arg&0x80 != 0); err != nil {
					recv.Close()
					t.Fatal(err)
				}
				s.Close()
				s = recv
			case 8:
				cfg.Params.Seed++
				for j := range stale {
					stale[j] = true
				}
				reopen()
			}
		}
		epoch()

		if got := s.Pending(); got != 0 {
			t.Fatalf("%d entries still pending after the final epoch", got)
		}
		if got := s.LedgerSeq(); got != wantSeq {
			t.Fatalf("ledger seq %d, want %d", got, wantSeq)
		}
		model := make(map[[2]int]histEntry)
		for _, e := range accepted {
			if cur, ok := model[[2]int{e.rater, e.subject}]; !ok || e.stamp.newer(cur.stamp) {
				model[[2]int{e.rater, e.subject}] = e
			}
		}
		v := s.View()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got, ok := v.Get(i, j)
				want, wok := model[[2]int{i, j}]
				if ok != wok || got != want.value {
					t.Fatalf("cell (%d,%d): view (%v, %v), LWW model (%v, %v)", i, j, got, ok, want.value, wok)
				}
			}
		}

		oracle := historyOracle(t, cfg, accepted)
		for j := 0; j < n; j++ {
			if stale[j] {
				continue
			}
			got, _, err := s.Reputation(j)
			if err != nil {
				t.Fatal(err)
			}
			if want, _, _ := oracle.Reputation(j); got != want {
				t.Fatalf("subject %d: node serves %v, oracle %v", j, got, want)
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				got, _, err := s.PersonalReputation(i, j)
				if err != nil {
					t.Fatal(err)
				}
				if want, _, _ := oracle.PersonalReputation(i, j); got != want {
					t.Fatalf("personal (%d,%d): node serves %v, oracle %v", i, j, got, want)
				}
			}
		}

		if !replicate {
			return
		}
		marks := s.ReplicationMarks()
		history := make(map[string][]store.Feedback)
		for o := range marks {
			history[o] = s.ReplicationEntriesSince(o, 0, 0)
		}
		reopen()
		if got := s.ReplicationMarks(); !maps.Equal(got, marks) {
			t.Fatalf("marks %v, reopened %v", marks, got)
		}
		for o, live := range history {
			if again := s.ReplicationEntriesSince(o, 0, 0); !slices.Equal(live, again) {
				t.Fatalf("origin %s history: live %v, reopened %v", o, live, again)
			}
		}
	})
}

// bootstrapInto installs sender's state transfer into recv and returns the
// number of entries recv's ledger then holds. A lagging receiver first
// applies a program-chosen prefix of each sender stream, one byte per origin
// in id order, and folds it, so the transfer is assembled against its marks.
func bootstrapInto(p *histProgram, sender, recv *Service, lagging bool) (uint64, error) {
	var held uint64
	var marks map[string]uint64
	if lagging {
		for _, o := range slices.Sorted(maps.Keys(sender.ReplicationMarks())) {
			ents := sender.ReplicationEntriesSince(o, 0, 0)
			applied, err := recv.ApplyReplicated(ents[:p.next()%(len(ents)+1)])
			if err != nil {
				return 0, err
			}
			held += uint64(applied)
		}
		if _, _, err := recv.RunEpoch(); err != nil {
			return 0, err
		}
		marks = recv.ReplicationMarks()
	}
	st, err := sender.BootstrapState(marks)
	if err != nil {
		return 0, err
	}
	if err := recv.InstallBootstrap(st); err != nil {
		return 0, err
	}
	return held + uint64(len(st.Folded)+len(st.Tail)), nil
}

// historyOracle folds accepted, once, into a fresh one-shard in-memory
// service under cfg's graph and params: a standalone oracle takes the
// entries as local submissions, which must receive the seqs the node gave
// them; a replicating one applies them under their origin tags.
func historyOracle(t *testing.T, cfg Config, accepted []histEntry) *Service {
	t.Helper()
	oc := Config{Graph: cfg.Graph, Params: cfg.Params}
	if cfg.Origin != "" {
		oc.Origin = "oracle"
	}
	o := newTestService(t, cfg.Graph.N(), oc)
	if oc.Origin != "" {
		batch := make([]store.Feedback, len(accepted))
		for k, e := range accepted {
			batch[k] = store.Feedback{Rater: e.rater, Subject: e.subject, Value: e.value, UnixNano: e.stamp.ts, Origin: e.stamp.origin, OriginSeq: e.stamp.seq}
		}
		if applied, err := o.ApplyReplicated(batch); err != nil || applied != len(batch) {
			t.Fatalf("oracle applied %d of %d entries: %v", applied, len(batch), err)
		}
	} else {
		for _, e := range accepted {
			seq, err := o.SubmitCtx(context.Background(), e.rater, e.subject, e.value, e.stamp.ts)
			if err != nil {
				t.Fatal(err)
			}
			if seq != e.stamp.seq {
				t.Fatalf("node gave an entry seq %d, a fresh ledger gives it %d", e.stamp.seq, seq)
			}
		}
	}
	if _, _, err := o.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	return o
}
