package main

import (
	"flag"
	"io"
	"net/http"
	"reflect"
	"sort"
	"testing"
	"time"

	"diffgossip/internal/cluster"
	"diffgossip/internal/core"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/service"
)

// TestFlagSurface is the guard against flag regrowth: dgserve's command line
// is exactly these 15 names, each documented, and anything else — such as a
// flag an earlier dgserve had — is refused.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"anti-entropy", "cluster-listen", "data", "epoch", "epsilon",
		"graph-seed", "join", "listen", "log-format", "log-level",
		"m", "n", "pprof-addr", "seed", "shards",
	}
	var c runConfig
	var got []string
	newFlagSet(&c).VisitAll(func(f *flag.Flag) {
		got = append(got, f.Name)
		if f.Usage == "" {
			t.Errorf("flag -%s has no usage text", f.Name)
		}
	})
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag surface\n got %q\nwant %q", got, want)
	}
	for _, removed := range []string{"-compact-every", "-loadgen", "-max-pending", "-trace-depth"} {
		fs := newFlagSet(&c)
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{removed, "1"}); err == nil {
			t.Errorf("%s was accepted; a removed flag must be refused", removed)
		}
	}
}

// TestDefaultConfigs pins "same behaviour at the defaults": a dgserve started
// with no flags builds exactly the layer configurations it built when the
// removed flags existed and sat at their defaults.
func TestDefaultConfigs(t *testing.T) {
	c, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (runConfig{
		listen: "127.0.0.1:8080", n: 1000, m: 2, graphSeed: 42, seed: 1,
		epsilon: 1e-6, epoch: 2 * time.Second, shards: 1,
		antiEntropy: time.Second, logLevel: "info", logFormat: "text",
	}); !reflect.DeepEqual(c, want) {
		t.Fatalf("flag defaults\n got %+v\nwant %+v", c, want)
	}
	if got, want := c.serviceConfig(nil, ""), (service.Config{
		Params:        core.Params{Epsilon: 1e-6, Seed: 1, Workers: -1},
		EpochInterval: 2 * time.Second,
		Shards:        1,
		FoldWorkers:   1,
	}); !reflect.DeepEqual(got, want) {
		t.Fatalf("service.Config\n got %+v\nwant %+v", got, want)
	}
	cc := c.clusterConfig(nil, nil)
	if cc.Incarnation == 0 || cc.Logger == nil {
		t.Fatalf("cluster.Config lacks an incarnation or a logger: %+v", cc)
	}
	cc.Incarnation, cc.Logger = 0, nil
	if want := (cluster.Config{
		Interval: time.Second, BootstrapLag: 8192,
	}); !reflect.DeepEqual(cc, want) {
		t.Fatalf("cluster.Config\n got %+v\nwant %+v", cc, want)
	}
	// Zero limits are httpapi.New's documented defaults (4096 / 8 MiB /
	// 65536 / 256), which is what the removed -max-* flags defaulted to.
	if got, want := c.httpConfig(nil, nil), (httpapi.Config{EpochEvery: 2 * time.Second}); !reflect.DeepEqual(got, want) {
		t.Fatalf("httpapi.Config\n got %+v\nwant %+v", got, want)
	}
	if got, want := newHTTPServer(nil), (&http.Server{
		ReadTimeout: 30 * time.Second, ReadHeaderTimeout: 30 * time.Second,
		WriteTimeout: 60 * time.Second, IdleTimeout: 2 * time.Minute,
	}); !reflect.DeepEqual(got, want) {
		t.Fatalf("http.Server deadlines\n got %+v\nwant %+v", got, want)
	}
}
