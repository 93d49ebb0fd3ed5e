package cluster

import (
	"fmt"
	"io"
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

// handleMetrics serves GET /metrics in the Prometheus text format.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rt.render(w)
}

func (rt *Router) render(w io.Writer) {
	m := rt.metrics
	m.requests.Render(w, "dramrouter_requests_total")
	hr := rt.poolHealth()
	fmt.Fprintf(w, "dramrouter_backends %d\n", len(rt.backends))
	fmt.Fprintf(w, "dramrouter_backends_healthy %d\n", hr.Healthy)
	skew := 0
	if hr.FingerprintSkew {
		skew = 1
	}
	fmt.Fprintf(w, "dramrouter_fingerprint_skew %d\n", skew)
	for _, b := range rt.backends {
		up := 0
		if b.healthy.Load() {
			up = 1
		}
		labels := fmt.Sprintf("{backend=%q}", b.addr)
		fmt.Fprintf(w, "dramrouter_backend_up%s %d\n", labels, up)
		fmt.Fprintf(w, "dramrouter_backend_generation%s %d\n", labels, b.generation.Load())
		fmt.Fprintf(w, "dramrouter_backend_info{backend=%q,fingerprint=%q} 1\n", b.addr, b.fp())
		fmt.Fprintf(w, "dramrouter_backend_requests_total{backend=%q,outcome=\"ok\"} %d\n", b.addr, b.subOK.Value())
		fmt.Fprintf(w, "dramrouter_backend_requests_total{backend=%q,outcome=\"error\"} %d\n", b.addr, b.subErr.Value())
	}
	fmt.Fprintf(w, "dramrouter_retries_total %d\n", m.retries.Value())
	fmt.Fprintf(w, "dramrouter_hedges_total %d\n", m.hedges.Value())
	fmt.Fprintf(w, "dramrouter_ejections_total %d\n", m.ejections.Value())
	fmt.Fprintf(w, "dramrouter_readmissions_total %d\n", m.readmissions.Value())
	fmt.Fprintf(w, "dramrouter_fingerprint_skew_rejections_total %d\n", m.skewRejects.Value())
	fmt.Fprintf(w, "dramrouter_probes_total %d\n", m.probes.Value())
	fmt.Fprintf(w, "dramrouter_probe_failures_total %d\n", m.probeFailures.Value())
}
