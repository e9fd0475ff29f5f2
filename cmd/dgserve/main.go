// Command dgserve runs the reputation service as an HTTP/JSON daemon: an
// append-only feedback ledger on the write path, a background epoch scheduler
// folding feedback into differential-gossip recomputes, and lock-free
// snapshot reads on the query path.
//
// Serve mode:
//
//	dgserve -listen :8080 -n 1000 -epoch 2s -data /var/lib/dgserve
//
//	curl -s -X POST localhost:8080/v1/feedback \
//	     -d '{"rater":3,"subject":7,"value":0.9}'
//	curl -s -X POST localhost:8080/v1/epoch          # or wait for -epoch
//	curl -s localhost:8080/v1/reputation/7           # global view
//	curl -s 'localhost:8080/v1/reputation/7?as=3'    # rater 3's GCLR view
//	curl -s localhost:8080/v1/epoch                  # snapshot metadata
//
// Cluster mode federates several dgserve processes into one reputation
// system: each node keeps serving its own HTTP clients while an anti-entropy
// loop (internal/cluster) replicates the feedback ledgers over TCP, so
// feedback submitted to any node becomes readable — with identical values —
// from every node. -join lists seeds, not the full topology: gossiped
// membership discovers the rest of the cluster transitively, so every node
// after the first needs exactly one address:
//
//	dgserve -listen :8080 -data /var/lib/dg0 -cluster-listen 127.0.0.1:9080
//	dgserve -listen :8081 -data /var/lib/dg1 -cluster-listen 127.0.0.1:9081 \
//	        -join 127.0.0.1:9080                  # … and so on per node
//
// All nodes must share -n, -m, -graph-seed and -seed (same overlay, same
// epoch randomness); -cluster-listen must be a stable address, since it is
// the node's origin id in peers' ledgers and the LWW origin tag on its
// entries; -data is required, since origin sequence numbers must survive
// restarts (a reset ledger would reuse seqs peers have already seen and its
// new entries would be discarded as duplicates). Nothing else is persisted
// for replication: a peer that was down pulls what it missed from the
// survivors' ledgers with its first digest. GET /v1/stats gains a "cluster"
// section with membership, watermarks and per-peer health; GET /readyz
// reports 503 while a majority of peers look down or the epoch scheduler
// stalls, and SIGTERM drains in-flight HTTP and fsyncs the WAL before
// exiting.
//
// The whole command line is 15 flags — the paper's parameters, where to
// listen and persist, the cluster addresses and cadence, and logging:
//
//	-listen -n -m -graph-seed -seed -epsilon -epoch -shards -data
//	-cluster-listen -join -anti-entropy -log-level -log-format -pprof-addr
//
// Anything else is a fixed value (the constants below and the
// internal/httpapi ingress defaults), and flag refuses it by name.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"diffgossip/internal/cluster"
	"diffgossip/internal/core"
	"diffgossip/internal/graph"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/obs"
	"diffgossip/internal/service"
	"diffgossip/internal/transport"
)

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		// The flag package has already printed the error and the usage text.
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	c.reg = obs.Default
	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
		os.Exit(1)
	}
}

// Values, not options: each has had one value in every run. The four ingress
// limits are not even named here — run leaves them zero, so httpapi.New's
// documented defaults apply (4,096 ratings and 8 MiB per batch, a
// 65,536-entry pending window, 256 requests in flight).
const (
	gossipWorkers = -1   // per-shard gossip workers: GOMAXPROCS
	foldWorkers   = 1    // dirty shards folding concurrently per epoch
	bootstrapLag  = 8192 // entries behind the cluster before a snapshot bootstrap is requested

	// The http.Server deadlines bound how long any one connection can hold
	// resources: slow-loris request trickles die at readTimeout (headers and
	// body), stalled consumers of big responses at writeTimeout, and idle
	// keep-alives at idleTimeout.
	readTimeout  = 30 * time.Second
	writeTimeout = 60 * time.Second
	idleTimeout  = 2 * time.Minute
)

type runConfig struct {
	listen          string
	n, m            int
	graphSeed, seed uint64
	epsilon         float64
	epoch           time.Duration
	shards          int
	dataDir         string
	clusterListen   string
	peers           []string
	antiEntropy     time.Duration

	// logLevel/logFormat configure the process-wide slog default;
	// empty values skip setup (tests keep their quiet default logger).
	logLevel, logFormat string
	// pprofAddr, when set, serves net/http/pprof on its own listener —
	// profiling stays off the public API surface.
	pprofAddr string
	// reg, when set, receives every layer's metrics and is served on
	// GET /metrics. main passes obs.Default; tests pass a fresh registry
	// (or nil for none) since metric names register once per registry.
	reg *obs.Registry

	// ready, when set, is called with the bound HTTP address once the
	// server is accepting connections (tests use it to reach a :0 listener).
	ready func(addr string)
}

// newFlagSet binds dgserve's command line straight into c: the FlagSet is
// the one place a flag's name, default and usage text are written down.
func newFlagSet(c *runConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("dgserve", flag.ContinueOnError)
	fs.StringVar(&c.listen, "listen", "127.0.0.1:8080", "address to serve HTTP on")
	fs.IntVar(&c.n, "n", 1000, "network size (node ids are 0..n-1)")
	fs.IntVar(&c.m, "m", 2, "preferential-attachment edges per node for the overlay")
	fs.Uint64Var(&c.graphSeed, "graph-seed", 42, "seed for the overlay topology")
	fs.Uint64Var(&c.seed, "seed", 1, "base seed for epoch gossip randomness")
	fs.Float64Var(&c.epsilon, "epsilon", 1e-6, "gossip convergence tolerance ξ")
	fs.DurationVar(&c.epoch, "epoch", 2*time.Second, "epoch scheduler interval (0 = manual epochs via POST /v1/epoch)")
	fs.IntVar(&c.shards, "shards", 1, "subject shards S (subject j belongs to shard j mod S); epochs recompute only dirty shards")
	fs.StringVar(&c.dataDir, "data", "", "persistence directory (empty = in-memory)")
	fs.StringVar(&c.clusterListen, "cluster-listen", "", "TCP address for ledger replication; enables cluster mode (use a stable address — it is this node's origin id)")
	fs.Func("join", "comma-separated seed cluster `addresses`; the rest of the cluster is discovered via gossiped membership", func(v string) error {
		c.peers = nil
		for _, p := range strings.Split(v, ",") {
			if p = strings.TrimSpace(p); p != "" {
				c.peers = append(c.peers, p)
			}
		}
		return nil
	})
	fs.DurationVar(&c.antiEntropy, "anti-entropy", time.Second, "cluster digest exchange interval (also runs before each scheduled epoch)")
	fs.StringVar(&c.logLevel, "log-level", "info", "log verbosity: debug, info, warn or error")
	fs.StringVar(&c.logFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "address for net/http/pprof profiling endpoints (empty = disabled)")
	return fs
}

// parseFlags turns a command line into the configuration run serves. An
// unknown flag is an error; the FlagSet reports it with the usage text.
func parseFlags(args []string) (runConfig, error) {
	var c runConfig
	if err := newFlagSet(&c).Parse(args); err != nil {
		return runConfig{}, err
	}
	return c, nil
}

// serviceConfig is the service the flags describe, over overlay g. In
// cluster mode the service replicates, with the cluster address as its LWW
// origin tag; campaigns are seeded by (-seed, subject) in every mode, so
// converged replicas serve bit-identical reputations.
func (c runConfig) serviceConfig(g *graph.Graph, origin string) service.Config {
	return service.Config{
		Graph:         g,
		Params:        core.Params{Epsilon: c.epsilon, Seed: c.seed, Workers: gossipWorkers},
		EpochInterval: c.epoch,
		Dir:           c.dataDir,
		Shards:        c.shards,
		FoldWorkers:   foldWorkers,
		Origin:        origin,
	}
}

// newService builds the overlay and the reputation service from flags.
func (c runConfig) newService(origin string) (*service.Service, error) {
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: c.n, M: c.m, Seed: c.graphSeed})
	if err != nil {
		return nil, err
	}
	return service.New(c.serviceConfig(g, origin))
}

// httpConfig is the HTTP front door's configuration: every ingress limit is
// left zero, so the internal/httpapi defaults apply.
func (c runConfig) httpConfig(svc *service.Service, node *cluster.Node) httpapi.Config {
	return httpapi.Config{Service: svc, Node: node, EpochEvery: c.epoch, Registry: c.reg}
}

// newHTTPServer wraps the front door in an http.Server with the fixed
// connection deadlines.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// clusterConfig is the replication agent's configuration. The node's
// incarnation is the boot wall-clock, which satisfies the
// must-increase-across-restarts contract without any extra persisted state.
func (c runConfig) clusterConfig(svc *service.Service, tr transport.Transport) cluster.Config {
	return cluster.Config{
		Service:      svc,
		Transport:    tr,
		Peers:        c.peers,
		Interval:     c.antiEntropy,
		Incarnation:  uint64(time.Now().UnixNano()),
		BootstrapLag: bootstrapLag,
		Logger:       obs.Logger("cluster"),
	}
}

// newCluster starts the replication agent over an already-listening
// transport; the returned cleanup closes both. It returns (nil, noop, nil)
// outside cluster mode (tr == nil).
func (c runConfig) newCluster(svc *service.Service, tr *transport.TCPTransport) (*cluster.Node, func(), error) {
	if tr == nil {
		return nil, func() {}, nil
	}
	node, err := cluster.New(c.clusterConfig(svc, tr))
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	node.Start()
	svc.SetReplicator(node)
	return node, func() {
		svc.SetReplicator(nil)
		node.Close()
		tr.Close()
	}, nil
}

func run(c runConfig) error {
	if c.logLevel != "" || c.logFormat != "" {
		if err := obs.SetupLogging(c.logLevel, c.logFormat); err != nil {
			return err
		}
	}
	logger := obs.Logger("dgserve")
	if c.clusterListen != "" && c.dataDir == "" {
		// A replica's origin sequence numbers live in its ledger; an
		// in-memory ledger restarts from seq 1, and peers — whose watermarks
		// survived — would silently discard every post-restart entry as a
		// duplicate. Refuse the foot-gun instead of diverging quietly.
		return fmt.Errorf("cluster mode requires -data: origin sequence numbers must survive restarts")
	}
	// In cluster mode the replication listener comes up before the service:
	// its bound address is the node's origin id, which the service stamps
	// into the LWW stamps of locally submitted entries.
	var tr *transport.TCPTransport
	origin := ""
	if c.clusterListen != "" {
		var err error
		if tr, err = transport.ListenTCP(c.clusterListen); err != nil {
			return err
		}
		origin = tr.Addr()
	}
	svc, err := c.newService(origin)
	if err != nil {
		if tr != nil {
			tr.Close()
		}
		return err
	}
	node, stopCluster, err := c.newCluster(svc, tr)
	if err != nil {
		svc.Close()
		return err
	}
	// Instrument every layer into the registry before serving: service (which
	// also registers its ledger's store metrics), transport and cluster.
	// Registration is once-per-registry, matching this process's one run().
	if c.reg != nil {
		svc.Instrument(c.reg)
		if tr != nil {
			tr.Instrument(c.reg)
		}
		if node != nil {
			node.Instrument(c.reg)
		}
	}
	// Shutdown order is the durability order: drain HTTP first (no new
	// writes), then the cluster node (no new replicated writes), then the
	// service (fsyncs the WAL).
	shutdown := func() error {
		stopCluster()
		return svc.Close()
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ln, err := net.Listen("tcp", c.listen)
	if err != nil {
		shutdown()
		return err
	}
	logger.Info("starting",
		"n", c.n, "m", c.m, "graph_seed", c.graphSeed, "shards", svc.Shards(),
		"epoch_interval", c.epoch.String(), "data", c.dataDir)
	if node != nil {
		logger.Info("cluster enabled",
			"self", node.Self(), "seeds", len(c.peers), "anti_entropy", c.antiEntropy.String())
	}
	if c.pprofAddr != "" {
		pln, err := net.Listen("tcp", c.pprofAddr)
		if err != nil {
			ln.Close()
			shutdown()
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		logger.Info("pprof enabled", "addr", pln.Addr().String())
		go http.Serve(pln, pprofMux())
	}
	logger.Info("listening", "addr", ln.Addr().String())
	srv := newHTTPServer(httpapi.New(c.httpConfig(svc, node)))
	if c.ready != nil {
		c.ready(ln.Addr().String())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		shutdown()
		return err
	case <-ctx.Done():
		stopSignals() // a second signal kills immediately
		logger.Info("signal received; draining HTTP, syncing WAL")
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			shutdown()
			return fmt.Errorf("drain http: %w", err)
		}
		if err := shutdown(); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		logger.Info("clean shutdown")
		return nil
	}
}

// pprofMux serves the net/http/pprof endpoints on a dedicated mux, so
// enabling profiling (-pprof-addr) never exposes it on the public API
// listener and the package's DefaultServeMux registration stays unused.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
