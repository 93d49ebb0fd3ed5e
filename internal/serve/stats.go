package serve

import (
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
)

// GET /v2/stats: the server's own view of its serving traffic, broken down
// per (target, kind, input set) model — the counters a fleet load
// generator cross-checks its completed-query count against (cmd/dramfleet,
// scripts/smoke.sh). Counters are server-lifetime: they accumulate across
// generation swaps, so a hot reload never makes the server's view and the
// generator's view diverge.

// ModelStatsV2 is one model's serving traffic inside a /v2/stats response.
type ModelStatsV2 struct {
	// Target, Kind and InputSet identify the model.
	Target   string `json:"target"`
	Kind     string `json:"kind"`
	InputSet int    `json:"input_set"`
	// Queries counts the queries this model answered successfully;
	// Errors the failed model resolutions and predictions.
	Queries int64 `json:"queries"`
	Errors  int64 `json:"errors"`
	// Latency of this model's predict calls, in fractional
	// milliseconds. Percentiles are conservative upper-bound
	// estimates from the fixed metric buckets.
	LatencyMSSum  float64 `json:"latency_ms_sum"`
	LatencyMSMean float64 `json:"latency_ms_mean"`
	LatencyMSP50  float64 `json:"latency_ms_p50"`
	LatencyMSP95  float64 `json:"latency_ms_p95"`
	LatencyMSP99  float64 `json:"latency_ms_p99"`
}

// EndpointStatsV2 is one (endpoint, status code) request counter.
type EndpointStatsV2 = httpapi.RequestCount

// IngestStatsV2 is the streaming-ingest section of a /v2/stats response,
// present only when the server was started with ingest enabled.
type IngestStatsV2 struct {
	// Accepted and Dropped count rows offered to POST /v2/ingest that were
	// enqueued vs. rejected by backpressure; QueueDepth is the number
	// currently in the bounded queue and Buffered the rows absorbed but not
	// yet folded into a retrain.
	Accepted   int64 `json:"accepted"`
	Dropped    int64 `json:"dropped"`
	QueueDepth int64 `json:"queue_depth"`
	Buffered   int64 `json:"buffered_rows"`
	// TelemetryRows counts the UE-labeled rows feeding the live drift
	// sketch; DriftScore is the current max per-feature total-variation
	// distance against the serving artifact's training distribution, and
	// DriftFeature names the feature that attains it.
	TelemetryRows int64   `json:"telemetry_rows"`
	DriftScore    float64 `json:"drift_score"`
	DriftFeature  string  `json:"drift_feature,omitempty"`
	// Retrains and RetrainFailures count completed and failed
	// ingest-driven retrains.
	Retrains        int64 `json:"retrains"`
	RetrainFailures int64 `json:"retrain_failures"`
}

// StatsResponseV2 is the GET /v2/stats body.
type StatsResponseV2 struct {
	// Generation and Fingerprint identify the current serving artifact.
	Generation  int64  `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	// UptimeSeconds is the server's age (wall-clock; everything else in
	// the response is a deterministic function of the traffic served).
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Targets rolls Queries up per target across kinds and input sets —
	// for a load generator that always requests the same target set, each
	// requested target's entry equals its completed-query count.
	Targets map[string]int64 `json:"targets"`
	// Models lists every model that has seen traffic, ordered by
	// (target, kind, input set).
	Models []ModelStatsV2 `json:"models"`
	// Endpoints lists the per-(endpoint, code) request counters, ordered
	// by (endpoint, code).
	Endpoints []EndpointStatsV2 `json:"endpoints"`
	// Ingest reports the streaming-ingest pipeline; omitted when the
	// server runs without one (the field is additive, so consumers of the
	// pre-ingest response shape are unaffected).
	Ingest *IngestStatsV2 `json:"ingest,omitempty"`
}

// handleStatsV2 serves GET /v2/stats.
func (s *Server) handleStatsV2(w http.ResponseWriter, r *http.Request) {
	g := s.gen.Load()
	resp := &StatsResponseV2{
		Generation:    g.id,
		Fingerprint:   g.fp,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Targets:       map[string]int64{},
	}
	for _, t := range core.Targets() {
		resp.Targets[string(t)] = 0
	}
	for _, k := range s.metrics.modelKeys() {
		st := s.metrics.modelStatFor(k)
		n, sum := st.latency.snapshot()
		m := ModelStatsV2{
			Target:       string(k.target),
			Kind:         string(k.kind),
			InputSet:     int(k.set),
			Queries:      st.queries.Value(),
			Errors:       st.errors.Value(),
			LatencyMSSum: sum * 1e3,
			LatencyMSP50: st.latency.quantile(0.50) * 1e3,
			LatencyMSP95: st.latency.quantile(0.95) * 1e3,
			LatencyMSP99: st.latency.quantile(0.99) * 1e3,
		}
		if n > 0 {
			m.LatencyMSMean = m.LatencyMSSum / float64(n)
		}
		resp.Targets[m.Target] += m.Queries
		resp.Models = append(resp.Models, m)
	}
	resp.Endpoints = s.metrics.requests.Snapshot()
	if s.ingest != nil {
		st := s.ingest.Snapshot()
		resp.Ingest = &IngestStatsV2{
			Accepted:        st.Accepted,
			Dropped:         st.Dropped,
			QueueDepth:      st.QueueDepth,
			Buffered:        st.Buffered,
			TelemetryRows:   st.TelemetryRows,
			DriftScore:      st.DriftScore,
			DriftFeature:    st.DriftFeature,
			Retrains:        st.Retrains,
			RetrainFailures: st.RetrainFailures,
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}
