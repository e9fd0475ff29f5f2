package main

import (
	"hash/fnv"
	"strconv"

	"diffgossip/internal/rng"
	"diffgossip/internal/store"
)

// Every input the harness feeds the program comes from the generators in
// this file, and every generator is a pure function of (-seed, purpose,
// index): the same seed reproduces the same graphs, ratings and request
// bodies byte for byte, on any machine and for any segment count.

// subSeed derives the generator seed for one named purpose.
func subSeed(seed uint64, purpose string, idx int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	x := seed ^ h.Sum64() ^ (uint64(idx)+1)*0x9e3779b97f4a7c15
	// SplitMix64 finaliser, so neighbouring seeds give unrelated streams.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rating is one generated "rater places trust value in subject" event.
type rating struct {
	Rater, Subject int
	Value          float64
}

// genPools draws, for each of the n subjects, the sorted set of per raters
// that will ever rate it. Workloads that must stay warm-eligible only send
// ratings from a subject's existing raters.
func genPools(seed uint64, n, per int) [][]int {
	src := rng.New(subSeed(seed, "pools", 0))
	pools := make([][]int, n)
	for j := range pools {
		pools[j] = src.Sample(n, per)
	}
	return pools
}

// genSeedRatings gives every (pool rater, subject) cell one rating: the
// fixture state of the service workloads.
func genSeedRatings(seed uint64, pools [][]int) []rating {
	src := rng.New(subSeed(seed, "seed-ratings", 0))
	out := make([]rating, 0, len(pools)*len(pools[0]))
	for j, pool := range pools {
		for _, r := range pool {
			out = append(out, rating{r, j, src.Float64()})
		}
	}
	return out
}

// genSubjects picks count subjects spread round-robin over the shards, so a
// round of count ratings dirties every shard (count ≥ shards).
func genSubjects(src *rng.Source, n, shards, count int) []int {
	perShard := (n + shards - 1) / shards
	out := make([]int, 0, count)
	for k := 0; len(out) < count; k++ {
		j := k%shards + shards*src.Intn(perShard)
		if j < n {
			out = append(out, j)
		}
	}
	return out
}

// genUpdates draws the count re-ratings of one item position. The cells —
// a subject (spread over the shards) and one of its existing raters — depend
// on pos alone, so every repeat of a position re-rates the same cells and
// does the same work; the values are fresh for every repeat, so no campaign
// is republished unchanged at zero steps.
func genUpdates(seed uint64, purpose string, pos, repeat int, pools [][]int, shards, count int) []rating {
	cells := rng.New(subSeed(seed, purpose, pos))
	values := rng.New(subSeed(seed, purpose+"-values", repeat))
	out := make([]rating, count)
	for k, j := range genSubjects(cells, len(pools), shards, count) {
		pool := pools[j]
		out[k] = rating{pool[cells.Intn(len(pool))], j, values.Float64()}
	}
	return out
}

// feedbackOf converts ratings to fresh ledger entries (SubmitBatch and
// AppendBatch stamp the entries they are given, so none is reused).
func feedbackOf(rs []rating) []store.Feedback {
	out := make([]store.Feedback, len(rs))
	for k, r := range rs {
		out[k] = store.Feedback{Rater: r.Rater, Subject: r.Subject, Value: r.Value}
	}
	return out
}

// appendRatingJSON appends the wire form POST /v1/feedback accepts.
func appendRatingJSON(b []byte, r rating) []byte {
	b = append(b, `{"rater":`...)
	b = strconv.AppendInt(b, int64(r.Rater), 10)
	b = append(b, `,"subject":`...)
	b = strconv.AppendInt(b, int64(r.Subject), 10)
	b = append(b, `,"value":`...)
	b = strconv.AppendFloat(b, r.Value, 'f', 6, 64)
	return append(b, '}')
}

// batchJSON renders ratings as the JSON array POST /v1/feedback/batch
// accepts.
func batchJSON(rs []rating) []byte {
	b := make([]byte, 0, 48*len(rs)+2)
	b = append(b, '[')
	for i, r := range rs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRatingJSON(b, r)
	}
	return append(b, ']')
}
