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
// Load-generator mode measures service throughput over real HTTP: it spins
// up an in-process server (or targets -target), hammers it with concurrent
// feedback writers and reputation readers for -duration, forces a final
// epoch, and prints a JSON report:
//
//	dgserve -loadgen -n 500 -duration 5s -writers 8 -readers 8
package main

import (
	"context"
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
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "address to serve HTTP on")
		n            = flag.Int("n", 1000, "network size (node ids are 0..n-1)")
		m            = flag.Int("m", 2, "preferential-attachment edges per node for the overlay")
		graphSeed    = flag.Uint64("graph-seed", 42, "seed for the overlay topology")
		seed         = flag.Uint64("seed", 1, "base seed for epoch gossip randomness")
		epsilon      = flag.Float64("epsilon", 1e-6, "gossip convergence tolerance ξ")
		epoch        = flag.Duration("epoch", 2*time.Second, "epoch scheduler interval (0 = manual epochs via POST /v1/epoch)")
		workers      = flag.Int("workers", -1, "per-shard gossip workers (-1 = GOMAXPROCS, 1 = sequential)")
		shards       = flag.Int("shards", 1, "subject shards S (subject j belongs to shard j mod S); epochs recompute only dirty shards")
		foldWkrs     = flag.Int("fold-workers", 1, "dirty shards folding concurrently per epoch (-1 = GOMAXPROCS)")
		dataDir      = flag.String("data", "", "persistence directory (empty = in-memory)")
		compactEvery = flag.Int("compact-every", 256, "rewrite the WAL keeping only live entries every N persisted epochs (0 = never; needs -data)")

		clusterListen = flag.String("cluster-listen", "", "TCP address for ledger replication; enables cluster mode (use a stable address — it is this node's origin id)")
		join          = flag.String("join", "", "comma-separated seed cluster addresses; the rest of the cluster is discovered via gossiped membership")
		antiEntropy   = flag.Duration("anti-entropy", time.Second, "cluster digest exchange interval (also runs before each scheduled epoch)")
		histTrimEvery = flag.Int("hist-trim-every", 16, "trim fully-acknowledged replication history every N exchanges (0 = never)")
		bootstrapLag  = flag.Uint64("bootstrap-lag", 8192, "request a snapshot-shipped bootstrap when trailing the cluster by more than this many entries (fresh nodes always request; 0 = never request)")

		maxBatch     = flag.Int("max-batch", httpapi.DefaultMaxBatch, "max ratings per POST /v1/feedback/batch (batch bodies beyond it get 413)")
		maxPending   = flag.Int("max-pending", httpapi.DefaultMaxPending, "pending-fold window size beyond which feedback ingest sheds with 429 (negative = unlimited)")
		maxInflight  = flag.Int("max-inflight", httpapi.DefaultMaxInflight, "max concurrently served data-route requests; excess get 503 (negative = unlimited)")
		maxBody      = flag.Int64("max-body", httpapi.DefaultMaxBodyBytes, "max batch request body bytes (oversized bodies get 413)")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout: a request (headers+body) slower than this is dropped")
		writeTimeout = flag.Duration("write-timeout", 60*time.Second, "http.Server WriteTimeout: a response slower than this is dropped")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")

		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		pprofAddr  = flag.String("pprof-addr", "", "address for net/http/pprof profiling endpoints (empty = disabled)")
		traceDepth = flag.Int("trace-depth", service.DefaultTraceDepth, "epochs kept in the GET /v1/trace ring (negative = disabled)")

		loadgen     = flag.Bool("loadgen", false, "run the load generator instead of serving")
		duration    = flag.Duration("duration", 5*time.Second, "loadgen: how long to generate load")
		writers     = flag.Int("writers", 8, "loadgen: concurrent feedback writers")
		readers     = flag.Int("readers", 8, "loadgen: concurrent reputation readers")
		target      = flag.String("target", "", "loadgen: base URL of an external dgserve (empty = in-process server)")
		batchSize   = flag.Int("batch", 0, "loadgen: ratings per write (0/1 = single POSTs, >1 = POST /v1/feedback/batch)")
		rate        = flag.Float64("rate", 0, "loadgen: open-loop total write arrival rate per second (0 = closed loop, as fast as accepted)")
		adversarial = flag.Bool("adversarial", false, "loadgen: mix in malformed and oversized bodies, slow-loris writers and hot-subject skew")
	)
	flag.Parse()

	var peers []string
	if *join != "" {
		for _, p := range strings.Split(*join, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	if err := run(runConfig{
		listen: *listen, n: *n, m: *m, graphSeed: *graphSeed, seed: *seed,
		epsilon: *epsilon, epoch: *epoch, workers: *workers, shards: *shards,
		foldWorkers: *foldWkrs, dataDir: *dataDir, compactEvery: *compactEvery,
		clusterListen: *clusterListen, peers: peers, antiEntropy: *antiEntropy,
		histTrimEvery: *histTrimEvery, bootstrapLag: *bootstrapLag,
		maxBatch: *maxBatch, maxPending: *maxPending, maxInflight: *maxInflight,
		maxBody: *maxBody, readTimeout: *readTimeout, writeTimeout: *writeTimeout,
		idleTimeout: *idleTimeout,
		logLevel:    *logLevel, logFormat: *logFormat,
		pprofAddr: *pprofAddr, traceDepth: *traceDepth, reg: obs.Default,
		loadgen: *loadgen, duration: *duration, writers: *writers,
		readers: *readers, target: *target, batchSize: *batchSize,
		rate: *rate, adversarial: *adversarial,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "dgserve: %v\n", err)
		os.Exit(1)
	}
}

type runConfig struct {
	listen           string
	n, m             int
	graphSeed, seed  uint64
	epsilon          float64
	epoch            time.Duration
	workers          int
	shards           int
	foldWorkers      int
	dataDir          string
	compactEvery     int
	clusterListen    string
	peers            []string
	antiEntropy      time.Duration
	histTrimEvery    int
	bootstrapLag     uint64
	loadgen          bool
	duration         time.Duration
	writers, readers int
	target           string
	// batchSize, rate and adversarial shape the loadgen workload: ratings
	// per write request, open-loop total write arrival rate (0 = closed
	// loop), and whether the adversarial mix (malformed/oversized bodies,
	// slow-loris writers, hot-subject skew) is on.
	batchSize   int
	rate        float64
	adversarial bool

	// The ingress limits (zero values fall back to the httpapi defaults)
	// and http.Server deadlines.
	maxBatch, maxPending, maxInflight int
	maxBody                           int64
	readTimeout, writeTimeout         time.Duration
	idleTimeout                       time.Duration

	// logLevel/logFormat configure the process-wide slog default;
	// empty values skip setup (tests keep their quiet default logger).
	logLevel, logFormat string
	// pprofAddr, when set, serves net/http/pprof on its own listener —
	// profiling stays off the public API surface.
	pprofAddr string
	// traceDepth sizes the epoch trace ring behind GET /v1/trace.
	traceDepth int
	// reg, when set, receives every layer's metrics and is served on
	// GET /metrics. main passes obs.Default; tests pass a fresh registry
	// (or nil for none) since metric names register once per registry.
	reg *obs.Registry

	// ready, when set, is called with the bound HTTP address once the
	// server is accepting connections (tests use it to reach a :0 listener).
	ready func(addr string)
}

// newService builds the overlay and the reputation service from flags. In
// cluster mode the service replicates — which also fixes its epoch seeds, so
// converged replicas serve bit-identical reputations — with the cluster
// address as its LWW origin tag.
func (c runConfig) newService(origin string) (*service.Service, error) {
	g, err := graph.PreferentialAttachment(graph.PAConfig{N: c.n, M: c.m, Seed: c.graphSeed})
	if err != nil {
		return nil, err
	}
	return service.New(service.Config{
		Graph:         g,
		Params:        core.Params{Epsilon: c.epsilon, Seed: c.seed, Workers: c.workers},
		EpochInterval: c.epoch,
		Dir:           c.dataDir,
		Shards:        c.shards,
		FoldWorkers:   c.foldWorkers,
		Replicate:     c.clusterListen != "",
		Origin:        origin,
		TraceDepth:    c.traceDepth,
		CompactEvery:  c.compactEvery,
	})
}

// newHTTPServer builds the HTTP front door with the flag-configured ingress
// limits (batch size, body bytes, backpressure window, in-flight gate).
func (c runConfig) newHTTPServer(svc *service.Service, node *cluster.Node) *httpapi.Server {
	return httpapi.New(httpapi.Config{
		Service:      svc,
		Node:         node,
		EpochEvery:   c.epoch,
		Registry:     c.reg,
		MaxBatch:     c.maxBatch,
		MaxBodyBytes: c.maxBody,
		MaxPending:   c.maxPending,
		MaxInflight:  c.maxInflight,
	})
}

// newCluster starts the replication agent over an already-listening
// transport; the returned cleanup closes both. It returns (nil, noop, nil)
// outside cluster mode (tr == nil). The node's incarnation is the boot
// wall-clock, which satisfies the must-increase-across-restarts contract
// without any extra persisted state.
func (c runConfig) newCluster(svc *service.Service, tr *transport.TCPTransport) (*cluster.Node, func(), error) {
	if tr == nil {
		return nil, func() {}, nil
	}
	node, err := cluster.New(cluster.Config{
		Service:      svc,
		Transport:    tr,
		Peers:        c.peers,
		Interval:     c.antiEntropy,
		Incarnation:  uint64(time.Now().UnixNano()),
		TrimEvery:    c.histTrimEvery,
		BootstrapLag: c.bootstrapLag,
		Logger:       obs.Logger("cluster"),
	})
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
	if c.loadgen {
		return runLoadgen(c, os.Stdout)
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
	// into LWW tags on locally submitted entries.
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
	// The deadlines bound how long any one connection can hold resources:
	// slow-loris request trickles die at ReadTimeout, stalled consumers of
	// big responses at WriteTimeout, and idle keep-alives at IdleTimeout.
	srv := &http.Server{
		Handler:           c.newHTTPServer(svc, node),
		ReadTimeout:       c.readTimeout,
		ReadHeaderTimeout: c.readTimeout,
		WriteTimeout:      c.writeTimeout,
		IdleTimeout:       c.idleTimeout,
	}
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
