package cluster

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"
)

// TestStatsJSONKeys pins the /v1/stats cluster section's key set: with every
// field populated, Stats and its member and peer rows marshal to exactly
// these keys, whatever struct the counters live in.
func TestStatsJSONKeys(t *testing.T) {
	g := testGraph(t, 16)
	_, nodes := hubCluster(t, g, 2, 1)
	if _, err := nodes[0].svc.Submit(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	converge(t, nodes)
	st := nodes[1].Stats()
	counters := reflect.ValueOf(&st.Counters).Elem()
	for i := 0; i < counters.NumField(); i++ {
		counters.Field(i).SetUint(uint64(i + 1))
	}
	st.DialFailures = map[string]int{"node-0": 1}
	st.Peers[0].LastErr = "boom"
	if len(st.Members) != 1 || st.Members[0].Addr != "node-0" || st.Peers[0].Addr != "node-0" {
		t.Fatalf("members %+v / peers %+v: want one row whose addr is the id node-0", st.Members, st.Peers)
	}

	keys := func(v any) []string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	for _, c := range []struct {
		name string
		v    any
		want []string
	}{
		{"stats", st, []string{
			"batches_gapped", "batches_received", "batches_sent",
			"bootstrap_errors", "bootstrap_requests_sent", "bootstrap_requests_served", "bootstraps_installed",
			"dial_failures", "digests_received", "digests_sent", "entries_applied", "entries_duplicate",
			"heartbeat", "incarnation", "marks", "members", "peers", "self",
		}},
		{"member", st.Members[0], []string{"addr", "heartbeat", "id", "incarnation", "last_advance_unix_nano", "state"}},
		{"peer", st.Peers[0], []string{"addr", "last_err", "last_seen_unix_nano"}},
	} {
		if got := keys(c.v); !slices.Equal(got, c.want) {
			t.Errorf("%s keys\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}
