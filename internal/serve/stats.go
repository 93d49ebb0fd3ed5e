package serve

import (
	"cmp"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/ingest"
)

// modelStat aggregates the serving traffic of one (target, kind, input
// set) model: how many queries it answered (or failed), and the latency of
// its predict calls. Counters are server-lifetime — they survive
// generation swaps, so a hot reload never resets the fleet's view of the
// service (the /v2/stats cross-check contract).
type modelStat struct {
	queries httpapi.Counter // successfully answered queries
	errors  httpapi.Counter // failed model resolutions or predictions
	latency httpapi.Histogram
}

// Compare orders model keys by (target, kind, set), the order of the
// per-model /metrics lines and /v2/stats models.
func (k modelKey) Compare(o modelKey) int {
	return cmp.Or(cmp.Compare(k.target, o.target), cmp.Compare(k.kind, o.kind), cmp.Compare(k.set, o.set))
}

// metrics aggregates every observable of the serving layer. The zero value
// is ready to use, and all fields are safe for concurrent use.
type metrics struct {
	requests httpapi.Requests                    // per (endpoint, status code)
	models   httpapi.Family[modelKey, modelStat] // per (target, kind, input set)

	profileHits     httpapi.Counter
	profileMisses   httpapi.Counter
	profileFailures httpapi.Counter // profile builds that errored (entry cleared, not cached)
	modelHits       httpapi.Counter
	modelMisses     httpapi.Counter
	trainFailures   httpapi.Counter // model fits that errored (entry cleared, not cached)

	reloads      httpapi.Counter // reloads that swapped in a new generation
	reloadNoops  httpapi.Counter // reloads skipped on a matching fingerprint
	reloadErrors httpapi.Counter // reloads that failed before any swap

	trainSeconds   httpapi.Histogram // one observation per model fit
	predictSeconds httpapi.Histogram // one observation per /v1 or /v2 predict request
	profileSeconds httpapi.Histogram // one observation per profile build
	reloadSeconds  httpapi.Histogram // one observation per swapping reload
	retrainSeconds httpapi.Histogram // one observation per ingest-driven retrain
}

// renderMetrics writes the full exposition: request counts, cache
// accounting, per-model traffic, the serving generation, reload totals,
// the latency histograms and, with ingest enabled, the pipeline. The
// request, model, generation and ingest series render the same snapshot
// GET /v2/stats serves.
func (s *Server) renderMetrics(e httpapi.Exposition) {
	st := s.statsV2()
	m := &s.metrics
	httpapi.RenderRequests(e, "dramserve_requests_total", st.Endpoints)
	e.Int("dramserve_profile_cache_hits_total", m.profileHits.Value())
	e.Int("dramserve_profile_cache_misses_total", m.profileMisses.Value())
	e.Int("dramserve_profile_build_failures_total", m.profileFailures.Value())
	e.Int("dramserve_model_registry_hits_total", m.modelHits.Value())
	e.Int("dramserve_model_registry_misses_total", m.modelMisses.Value())
	e.Int("dramserve_model_train_failures_total", m.trainFailures.Value())
	for _, ms := range st.Models {
		labels := []string{"target", ms.Target, "kind", ms.Kind, "set", strconv.Itoa(ms.InputSet)}
		e.Int("dramserve_model_queries_total", ms.Queries, labels...)
		e.Int("dramserve_model_errors_total", ms.Errors, labels...)
	}
	e.Int("dramserve_generation", st.Generation)
	e.Int("dramserve_reloads_total", m.reloads.Value())
	e.Int("dramserve_reload_noops_total", m.reloadNoops.Value())
	e.Int("dramserve_reload_errors_total", m.reloadErrors.Value())
	m.trainSeconds.Render(e, "dramserve_train_seconds")
	m.predictSeconds.Render(e, "dramserve_predict_seconds")
	m.profileSeconds.Render(e, "dramserve_profile_seconds")
	m.reloadSeconds.Render(e, "dramserve_reload_seconds")
	if in := st.Ingest; in != nil {
		e.Int("dramserve_ingest_accepted_total", in.Accepted)
		e.Int("dramserve_ingest_dropped_total", in.Dropped)
		e.Int("dramserve_ingest_queue_depth", in.QueueDepth)
		e.Int("dramserve_ingest_buffered_rows", in.Buffered)
		e.Float("dramserve_ingest_drift_score", in.DriftScore)
		e.Int("dramserve_retrain_total", in.Retrains)
		e.Int("dramserve_retrain_failures_total", in.RetrainFailures)
		m.retrainSeconds.Render(e, "dramserve_retrain_seconds")
	}
}

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
// present only when the server was started with ingest enabled: the
// pipeline's own snapshot, the same value the dramserve_ingest_* and
// dramserve_retrain_* /metrics series render.
type IngestStatsV2 = ingest.Stats

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
	httpapi.WriteJSON(w, http.StatusOK, s.statsV2())
}

// statsV2 reads the serving counters once: one walk over the model family
// and one snapshot each of the request counters and the ingest pipeline.
// /v2/stats serves it and /metrics renders it.
func (s *Server) statsV2() *StatsResponseV2 {
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
	s.metrics.models.Each(func(k modelKey, st *modelStat) {
		n, sum := st.latency.Snapshot()
		m := ModelStatsV2{
			Target:       string(k.target),
			Kind:         string(k.kind),
			InputSet:     int(k.set),
			Queries:      st.queries.Value(),
			Errors:       st.errors.Value(),
			LatencyMSSum: sum * 1e3,
			LatencyMSP50: st.latency.Quantile(0.50) * 1e3,
			LatencyMSP95: st.latency.Quantile(0.95) * 1e3,
			LatencyMSP99: st.latency.Quantile(0.99) * 1e3,
		}
		if n > 0 {
			m.LatencyMSMean = m.LatencyMSSum / float64(n)
		}
		resp.Targets[m.Target] += m.Queries
		resp.Models = append(resp.Models, m)
	})
	resp.Endpoints = s.metrics.requests.Snapshot()
	if s.ingest != nil {
		st := s.ingest.Snapshot()
		resp.Ingest = &st
	}
	return resp
}
