package main

// metricDef names one metric of BENCHMARK.json. def states exactly what is
// timed or counted; the tests require every definition to be distinct, so
// no metric can be a copy of another under a second name.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	def                string
}

// endToEnd are the metrics every workload reports on an untraced run. The
// contract requires each workload to report each of them and none may ever
// be 0, so only the three quantities all four workloads genuinely have are
// end-to-end; read latency and visible lag, which exist on the HTTP and
// service workloads only, are reported as per-layer metrics below.
//
// A bound covers a metric on all four workloads and has to be three times
// the spread (interquartile range / median over ten runs with ten seeds) of
// the noisiest of them. Measured on the shared reference box in six sets:
// 2.6–9.9 % on work_per_s, 2.9–13.0 % on op_p50_ms, 3.7–24 % on setup_s,
// whichever workload happened to meet one of the machine's slow phases being
// the widest. No metric resolves the 10 % the issue asked for on every
// workload, so each carries the largest bound the contract allows;
// README.md has the table per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"fastest complete fixture build from the same seed; one group of builds before and one after the measured segments, each lasting 1.5 s (3 to 20 builds)"},
	{"work_per_s", "1/s", "higher", 0.25,
		"rate of one quiet pass: sum of the items' units of useful work / sum of each item's shortest slice time"},
	{"op_p50_ms", "ms", "lower", 0.25,
		"median over the items of the lowest primary-operation latency any of the item's slices saw"},
}

// perLayer are the metrics a traced run reports. A workload that never
// enters a layer reports 0 for it.
var perLayer = []metricDef{
	// Library layers, measured by lib-aggregate.
	{name: "graph.pa_build.ms", unit: "ms", better: "lower",
		def: "graph.PreferentialAttachment of the fixture's own 50,000-node graph (m = 2), fastest of 3"},
	{name: "core.global_single.ms", unit: "ms", better: "lower",
		def: "core.GlobalSingle (Alg. 1), one subject with 5,000 raters on the fixture's 50,000-node graph, fastest of 2"},
	{name: "core.gclr_single.ms", unit: "ms", better: "lower",
		def: "core.GCLRSingle (Alg. 2), same subject and graph, fastest of 2"},
	{name: "core.global_subjects_dense.ms", unit: "ms", better: "lower",
		def: "median span of one AggregateGlobalSubjects call on a 25-subject block, N = 1,000, SparseRaterFrac 0"},
	{name: "gossip.scalar.ns_per_node_step", unit: "ns", better: "lower",
		def: "elapsed / (N x Steps) pooled over the 50,000-node Alg. 1 and Alg. 2 calls"},
	{name: "gossip.vector.ns_per_node_step_subject", unit: "ns", better: "lower",
		def: "block elapsed / (N x TotalSteps) for the dense vector engine"},
	{name: "gossip.steps_total", unit: "count", better: "lower",
		def: "sum of Steps/TotalSteps over every aggregation call of one lib-aggregate round (exact)"},
	{name: "gossip.msgs_per_node_step", unit: "count", better: "lower",
		def: "Messages.PerNodePerStep of the 50,000-node Alg. 1 call (paper Table 2, exact)"},
	{name: "core.max_abs_err", unit: "ratio", better: "lower",
		def: "largest |estimate - exact reference| any output check of the run saw"},

	// Epoch pipeline, measured by epoch-dirty5.
	{name: "service.submit.ns", unit: "ns", better: "lower",
		def: "in-memory Service.Submit, span of a round's submits / their count"},
	{name: "service.run_epoch.ms", unit: "ms", better: "lower",
		def: "span around Service.RunEpoch on epoch-dirty5, quietest traced round"},
	{name: "trust.columns_of.ms_per_epoch", unit: "ms", better: "lower",
		def: "freeze share of the epoch: service.run_epoch.ms x median over the traced rounds of (wall time of the mirror refold, foldShard's two calls over all shards on GOMAXPROCS workers / the RunEpoch span it replays) x busy time in trust.ColumnsOf / busy time in both calls"},
	{name: "core.global_subjects_warm.ms_per_epoch", unit: "ms", better: "lower",
		def: "campaign share of the epoch: the same product x busy time in core.GlobalSubjects (Params.Warm fed from the previous refold's KeepStates, SparseRaterFrac 0.25) / busy time in both calls"},
	{name: "core.global_subjects_cold.ms_per_epoch", unit: "ms", better: "lower",
		def: "campaign share of the mirror's first refold, which has no warm state: its wall time x busy time in core.GlobalSubjects / busy time in both"},
	{name: "service.trace.campaign_ms_per_epoch", unit: "ms", better: "lower",
		def: "sum of ShardTrace.DurationNs per epoch from Service.Trace(), mean over the ring"},
	{name: "service.epoch.total_steps", unit: "count", better: "lower",
		def: "View.TotalSteps summed over every epoch of the measured segments (exact)"},
	{name: "service.epoch.warm_starts", unit: "count", better: "higher",
		def: "Service.WarmStarts delta over the measured segments (exact)"},
	{name: "service.epoch.cold_starts", unit: "count", better: "lower",
		def: "Service.ColdStarts delta over the measured segments (exact)"},
	{name: "service.epoch.folded_subjects", unit: "count", better: "lower",
		def: "Service.FoldedSubjects delta over the measured segments (exact)"},
	{name: "service.epoch.unexplained_share", unit: "ratio", better: "lower",
		def: "1 - median over the traced rounds of mirror refold wall time / RunEpoch span: what RunEpoch does besides foldShard's two calls"},
	{name: "visible_lag_p50_ms", unit: "ms", better: "lower",
		def: "a rating's send time to the first read whose fold point (seq) covers it, median over the traced rounds or cycles"},

	// Write path, measured by http-ingest.
	{name: "httpapi.decode_batch.us", unit: "us", better: "lower",
		def: "httpapi.DecodeBatch on the workload's own 1,024-entry bodies, median"},
	{name: "store.append_mem.ns", unit: "ns", better: "lower",
		def: "Ledger.Append on store.NewLedger, the workload's single ratings, mean over the quietest position"},
	{name: "store.append_wal.ns", unit: "ns", better: "lower",
		def: "Ledger.Append on store.OpenLedger (per-entry flush), same ratings, mean over the quietest position"},
	{name: "store.append_batch_mem.us", unit: "us", better: "lower",
		def: "Ledger.AppendBatch of 1,024 entries on store.NewLedger, median"},
	{name: "store.append_batch_wal.us", unit: "us", better: "lower",
		def: "Ledger.AppendBatch of 1,024 entries on store.OpenLedger (one fsync), median"},
	{name: "service.submit_wal.ns", unit: "ns", better: "lower",
		def: "Service.SubmitCtx on a WAL-backed service, same ratings, mean over the quietest position"},
	{name: "service.submit_batch.us", unit: "us", better: "lower",
		def: "Service.SubmitBatch of 1,024 entries on a WAL-backed service, median"},
	{name: "httpapi.handler_single.us", unit: "us", better: "lower",
		def: "Server.ServeHTTP of POST /v1/feedback into an httptest recorder (no socket), mean"},
	{name: "httpapi.handler_batch.us", unit: "us", better: "lower",
		def: "Server.ServeHTTP of POST /v1/feedback/batch into an httptest recorder, median"},
	{name: "httpapi.loopback_single.us", unit: "us", better: "lower",
		def: "median span of one POST /v1/feedback over loopback during http-ingest"},
	{name: "httpapi.loopback_batch.us", unit: "us", better: "lower",
		def: "median span of one 1,024-rating POST /v1/feedback/batch over loopback during http-ingest"},
	{name: "httpapi.batch.p99_ms", unit: "ms", better: "lower",
		def: "99th percentile of the same batch spans"},
	{name: "httpapi.single_per_s", unit: "1/s", better: "higher",
		def: "single ratings / wall time of a slice's singles phase, best traced slice"},
	{name: "httpapi.batch_ratings_per_s", unit: "1/s", better: "higher",
		def: "batched ratings / wall time of a slice's batch phase, best traced slice"},
	{name: "store.wal.bytes_per_rating", unit: "B", better: "lower",
		def: "WAL file growth / ratings accepted over the measured segments (exact)"},
	{name: "store.wal.fsyncs_per_krating", unit: "count", better: "lower",
		def: "diffgossip_store_wal_fsyncs_total delta x 1000 / ratings accepted (exact)"},
	{name: "service.backlog_fold.s", unit: "s", better: "lower",
		def: "POST /v1/epoch folding everything one http-ingest segment left pending, median over the segments"},
	{name: "store.compact.ms", unit: "ms", better: "lower",
		def: "one Service.CompactWAL after the warm-up segment's fold"},
	{name: "store.compact.bytes_ratio", unit: "ratio", better: "lower",
		def: "CompactStats.BytesAfter / BytesBefore of that compaction"},
	{name: "httpapi.refused_total", unit: "count", better: "lower",
		def: "dgserve_http_refused_total summed over reasons; non-zero means load was shed, not served"},

	// Read path and epochs through the front door, measured by http-mixed.
	{name: "read_p50_ms", unit: "ms", better: "lower",
		def: "median span of GET /v1/reputation/{j} over loopback in http-mixed's read bursts"},
	{name: "read_personal_p50_ms", unit: "ms", better: "lower",
		def: "median span of GET /v1/reputation/{j}?as={i} (eq. 6 view) over loopback in the same bursts"},
	{name: "httpapi.read.p99_ms", unit: "ms", better: "lower",
		def: "99th percentile of the global read spans"},
	{name: "httpapi.personal.p99_ms", unit: "ms", better: "lower",
		def: "99th percentile of the personalised read spans"},
	{name: "httpapi.reads_per_s", unit: "1/s", better: "higher",
		def: "reads of both kinds / wall time of a cycle's read burst, best traced cycle"},
	{name: "httpapi.epoch_post.p50_ms", unit: "ms", better: "lower",
		def: "median span of the writer's POST /v1/epoch (a warm epoch over every shard, in memory)"},
	{name: "httpapi.batch64.p50_ms", unit: "ms", better: "lower",
		def: "median span of the writer's 64-rating batch POST"},
	{name: "store.shard_snapshot.save.ms", unit: "ms", better: "lower",
		def: "ShardSnapshot.Save(io.Discard) summed over all shards of the final view"},
	{name: "service.subject_read.ns", unit: "ns", better: "lower",
		def: "Service.SubjectRead + ShardSnapshot.Reputation in process on the final view, mean"},
	{name: "service.personal.us", unit: "us", better: "lower",
		def: "Service.PersonalReputation in process on the final view, mean"},
	{name: "httpapi.handler_read.us", unit: "us", better: "lower",
		def: "Server.ServeHTTP of the global GET into an httptest recorder, mean"},
	{name: "httpapi.handler_personal.us", unit: "us", better: "lower",
		def: "Server.ServeHTTP of the personalised GET into an httptest recorder, mean"},

	{name: "bench.trace_overhead", unit: "ratio", better: "higher",
		def: "work_per_s of the traced segments / work_per_s of the untraced segments of the same run"},
}

var perLayerIndex = func() map[string]int {
	m := make(map[string]int, len(perLayer))
	for i, d := range perLayer {
		m[d.name] = i
	}
	return m
}()
