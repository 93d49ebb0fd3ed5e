package cluster

import (
	"net/http"
	"time"

	"repro/internal/httpapi"
)

// metrics aggregates the router's observables. All fields are safe for
// concurrent use.
type metrics struct {
	requests httpapi.Requests // per (endpoint, status code)

	retries      httpapi.Counter // attempts escalated after a retryable failure
	hedges       httpapi.Counter // duplicate attempts launched on slow responses
	ejections    httpapi.Counter // healthy→ejected transitions (probe or traffic)
	readmissions httpapi.Counter // ejected→healthy transitions
	skewRejects  httpapi.Counter // responses refused over fingerprint disagreement

	probes        httpapi.Counter
	probeFailures httpapi.Counter
}

// BackendHealth is one backend's entry in the router /healthz body.
type BackendHealth struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFailures is the current ejection streak (probe or
	// traffic); it resets on any success.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// Generation and Fingerprint are the artifact identity of the last
	// successful probe; an empty fingerprint means not probed yet.
	Generation  int64  `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	LastError   string `json:"last_error,omitempty"`
}

// HealthResponse is the router's GET /healthz body: pool membership,
// per-backend artifact identity, and whether the pool agrees on one
// artifact fingerprint.
type HealthResponse struct {
	// Status is "ok" (all healthy, fingerprints agree), "degraded" (some
	// backends ejected but the pool serves), "skew" (healthy backends on
	// different artifact fingerprints) or "down" (no healthy backends).
	Status        string          `json:"status"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Backends      []BackendHealth `json:"backends"`
	Healthy       int             `json:"healthy"`
	// Fingerprint is the pool's agreed artifact fingerprint ("" until a
	// probe succeeds, or while the pool disagrees).
	Fingerprint     string `json:"fingerprint,omitempty"`
	FingerprintSkew bool   `json:"fingerprint_skew"`
}

// poolHealth snapshots the pool for /healthz and /metrics.
func (rt *Router) poolHealth() *HealthResponse {
	hr := &HealthResponse{UptimeSeconds: time.Since(rt.start).Seconds()}
	var agreed string
	for _, b := range rt.backends {
		bh := BackendHealth{
			Addr:                b.addr,
			Healthy:             b.healthy.Load(),
			ConsecutiveFailures: b.consecFails.Load(),
			Generation:          b.generation.Load(),
			Fingerprint:         b.fp(),
			LastError:           b.lastErr.Load().(string),
		}
		hr.Backends = append(hr.Backends, bh)
		if bh.Healthy {
			hr.Healthy++
			// Skew is judged over healthy backends with a known
			// fingerprint: an ejected node or one not probed yet is not
			// serving traffic, so it cannot skew a response.
			if bh.Fingerprint != "" {
				switch {
				case agreed == "":
					agreed = bh.Fingerprint
				case agreed != bh.Fingerprint:
					hr.FingerprintSkew = true
				}
			}
		}
	}
	switch {
	case hr.Healthy == 0:
		hr.Status = "down"
	case hr.FingerprintSkew:
		hr.Status = "skew"
	case hr.Healthy < len(hr.Backends):
		hr.Status = "degraded"
		hr.Fingerprint = agreed
	default:
		hr.Status = "ok"
		hr.Fingerprint = agreed
	}
	return hr
}

// handleHealthz serves GET /healthz: 200 while the pool can serve
// consistently, 503 when it is down or fingerprint-skewed (a load balancer
// in front of several routers should stop sending traffic here).
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hr := rt.poolHealth()
	code := http.StatusOK
	if hr.Status == "down" || hr.Status == "skew" {
		code = http.StatusServiceUnavailable
	}
	httpapi.WriteJSON(w, code, hr)
}

// renderMetrics writes the router's /metrics exposition: request counts,
// pool membership and per-backend identity and traffic, then the routing
// counters.
func (rt *Router) renderMetrics(e httpapi.Exposition) {
	m := rt.metrics
	m.requests.Render(e.W, "dramrouter_requests_total")
	hr := rt.poolHealth()
	e.Int("dramrouter_backends", int64(len(rt.backends)))
	e.Int("dramrouter_backends_healthy", int64(hr.Healthy))
	e.Bool("dramrouter_fingerprint_skew", hr.FingerprintSkew)
	for _, b := range rt.backends {
		e.Bool("dramrouter_backend_up", b.healthy.Load(), "backend", b.addr)
		e.Int("dramrouter_backend_generation", b.generation.Load(), "backend", b.addr)
		e.Int("dramrouter_backend_info", 1, "backend", b.addr, "fingerprint", b.fp())
		e.Int("dramrouter_backend_requests_total", b.subOK.Value(), "backend", b.addr, "outcome", "ok")
		e.Int("dramrouter_backend_requests_total", b.subErr.Value(), "backend", b.addr, "outcome", "error")
	}
	e.Int("dramrouter_retries_total", m.retries.Value())
	e.Int("dramrouter_hedges_total", m.hedges.Value())
	e.Int("dramrouter_ejections_total", m.ejections.Value())
	e.Int("dramrouter_readmissions_total", m.readmissions.Value())
	e.Int("dramrouter_fingerprint_skew_rejections_total", m.skewRejects.Value())
	e.Int("dramrouter_probes_total", m.probes.Value())
	e.Int("dramrouter_probe_failures_total", m.probeFailures.Value())
}
