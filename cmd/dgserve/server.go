package main

import (
	"time"

	"diffgossip/internal/cluster"
	"diffgossip/internal/httpapi"
	"diffgossip/internal/obs"
	"diffgossip/internal/service"
)

// The HTTP surface lives in internal/httpapi (so the benchmark drives
// the same ingress path production serves); these aliases keep this
// package's tests and the loadgen reading naturally.
type (
	feedbackResponse   = httpapi.FeedbackResponse
	batchResponse      = httpapi.BatchResponse
	reputationResponse = httpapi.ReputationResponse
	epochResponse      = httpapi.EpochResponse
	statsResponse      = httpapi.StatsResponse
	traceResponse      = httpapi.TraceResponse
)

// newServer builds a standalone front door with default limits — the
// in-process loadgen target and simple-test construction.
func newServer(svc *service.Service) *httpapi.Server { return newClusterServer(svc, nil, 0, nil) }

// newClusterServer builds the HTTP surface over a service and, in cluster
// mode, its replication node, with the package's default ingress limits.
// run() wires the flag-configured limits through runConfig.newHTTPServer
// instead.
func newClusterServer(svc *service.Service, node *cluster.Node, epochEvery time.Duration, reg *obs.Registry) *httpapi.Server {
	return httpapi.New(httpapi.Config{
		Service: svc, Node: node, EpochEvery: epochEvery, Registry: reg,
	})
}
