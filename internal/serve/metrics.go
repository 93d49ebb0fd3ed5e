package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// latencyBuckets are the histogram upper bounds in seconds: a log scale
// from 100 µs to 10 s bracketing the paper's 300 ms budget.
var latencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	mu     sync.Mutex
	counts []int64 // one per bucket, plus +Inf at the end
	sum    float64
	n      int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	h.mu.Lock()
	h.counts[i]++
	h.sum += sec
	h.n++
	h.mu.Unlock()
}

// snapshot returns the histogram's totals: observation count and sum.
func (h *histogram) snapshot() (n int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n, h.sum
}

// quantile estimates the q-quantile (q in (0, 1]) from the bucket counts:
// the upper bound of the bucket holding the nearest-rank observation, a
// conservative estimate that is exact for the question the 300 ms budget
// asks ("is the tail under the bound?"). Observations past the last bucket
// report the largest bound. Zero when nothing was observed.
func (h *histogram) quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, le := range latencyBuckets {
		cum += h.counts[i]
		if cum >= rank {
			return le
		}
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// render writes the histogram in the Prometheus text exposition format.
func (h *histogram) render(w io.Writer, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for i, le := range latencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", le), cum)
	}
	cum += h.counts[len(latencyBuckets)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n)
}

// modelStat aggregates the serving traffic of one (target, kind, input
// set) model: how many queries it answered (or failed), and the latency of
// its predict calls. Counters are server-lifetime — they survive
// generation swaps, so a hot reload never resets the fleet's view of the
// service (the /v2/stats cross-check contract).
type modelStat struct {
	queries httpapi.Counter // successfully answered queries
	errors  httpapi.Counter // failed model resolutions or predictions
	latency *histogram
}

// metrics aggregates every observable of the serving layer. All fields are
// safe for concurrent use.
type metrics struct {
	requests httpapi.Requests // per (endpoint, status code)

	modelMu sync.Mutex
	models  map[modelKey]*modelStat // per (target, kind, input set)

	profileHits     httpapi.Counter
	profileMisses   httpapi.Counter
	profileFailures httpapi.Counter // profile builds that errored (entry cleared, not cached)
	modelHits       httpapi.Counter
	modelMisses     httpapi.Counter
	trainFailures   httpapi.Counter // model fits that errored (entry cleared, not cached)

	// generationID is the serving generation (a gauge, not a counter: it
	// reports the current value, bumped on every swap).
	generationID atomic.Int64
	reloads      httpapi.Counter // reloads that swapped in a new generation
	reloadNoops  httpapi.Counter // reloads skipped on a matching fingerprint
	reloadErrors httpapi.Counter // reloads that failed before any swap

	trainSeconds   *histogram // one observation per model fit
	predictSeconds *histogram // one observation per /v1 or /v2 predict request
	profileSeconds *histogram // one observation per profile build
	reloadSeconds  *histogram // one observation per swapping reload
	retrainSeconds *histogram // one observation per ingest-driven retrain
}

func newMetrics() *metrics {
	return &metrics{
		models:         map[modelKey]*modelStat{},
		trainSeconds:   newHistogram(),
		predictSeconds: newHistogram(),
		profileSeconds: newHistogram(),
		reloadSeconds:  newHistogram(),
		retrainSeconds: newHistogram(),
	}
}

// modelStatFor finds or creates the stat slot of one model key.
func (m *metrics) modelStatFor(k modelKey) *modelStat {
	m.modelMu.Lock()
	defer m.modelMu.Unlock()
	st, ok := m.models[k]
	if !ok {
		st = &modelStat{latency: newHistogram()}
		m.models[k] = st
	}
	return st
}

// modelKeys snapshots the known model keys in deterministic
// (target, kind, set) order.
func (m *metrics) modelKeys() []modelKey {
	m.modelMu.Lock()
	keys := make([]modelKey, 0, len(m.models))
	for k := range m.models {
		keys = append(keys, k)
	}
	m.modelMu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].target != keys[j].target {
			return keys[i].target < keys[j].target
		}
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].set < keys[j].set
	})
	return keys
}

// render writes the full exposition: request counts, cache accounting,
// per-model traffic, reload totals and the latency histograms.
func (m *metrics) render(w io.Writer) {
	m.requests.Render(w, "dramserve_requests_total")
	fmt.Fprintf(w, "dramserve_profile_cache_hits_total %d\n", m.profileHits.Value())
	fmt.Fprintf(w, "dramserve_profile_cache_misses_total %d\n", m.profileMisses.Value())
	fmt.Fprintf(w, "dramserve_profile_build_failures_total %d\n", m.profileFailures.Value())
	fmt.Fprintf(w, "dramserve_model_registry_hits_total %d\n", m.modelHits.Value())
	fmt.Fprintf(w, "dramserve_model_registry_misses_total %d\n", m.modelMisses.Value())
	fmt.Fprintf(w, "dramserve_model_train_failures_total %d\n", m.trainFailures.Value())
	for _, k := range m.modelKeys() {
		st := m.modelStatFor(k)
		labels := fmt.Sprintf("{target=%q,kind=%q,set=\"%d\"}", k.target, k.kind, k.set)
		fmt.Fprintf(w, "dramserve_model_queries_total%s %d\n", labels, st.queries.Value())
		fmt.Fprintf(w, "dramserve_model_errors_total%s %d\n", labels, st.errors.Value())
	}
	fmt.Fprintf(w, "dramserve_generation %d\n", m.generationID.Load())
	fmt.Fprintf(w, "dramserve_reloads_total %d\n", m.reloads.Value())
	fmt.Fprintf(w, "dramserve_reload_noops_total %d\n", m.reloadNoops.Value())
	fmt.Fprintf(w, "dramserve_reload_errors_total %d\n", m.reloadErrors.Value())
	m.trainSeconds.render(w, "dramserve_train_seconds")
	m.predictSeconds.render(w, "dramserve_predict_seconds")
	m.profileSeconds.render(w, "dramserve_profile_seconds")
	m.reloadSeconds.render(w, "dramserve_reload_seconds")
}
