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
// package's tests reading naturally.
type (
	feedbackResponse   = httpapi.FeedbackResponse
	batchResponse      = httpapi.BatchResponse
	reputationResponse = httpapi.ReputationResponse
	epochResponse      = httpapi.EpochResponse
	statsResponse      = httpapi.StatsResponse
	traceResponse      = httpapi.TraceResponse
)

// newClusterServer builds the HTTP surface over a service and, in cluster
// mode, its replication node — through the same runConfig.httpConfig run()
// serves with, so tests meet the production ingress limits.
func newClusterServer(svc *service.Service, node *cluster.Node, epochEvery time.Duration, reg *obs.Registry) *httpapi.Server {
	return httpapi.New(runConfig{epoch: epochEvery, reg: reg}.httpConfig(svc, node))
}
