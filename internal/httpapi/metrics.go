package httpapi

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Value() int64 { return c.v.Load() }

// Key is a label tuple of a Family: comparable for the map, ordered for
// deterministic iteration.
type Key[K any] interface {
	comparable
	Compare(K) int
}

// Family is a labelled metric family: one slot of type V per label tuple,
// created zeroed on first use. The zero value is ready to use, and a
// lookup of an existing slot allocates nothing.
type Family[K Key[K], V any] struct {
	mu sync.Mutex
	m  map[K]*V
}

// At returns the slot of k, creating it on first use.
func (f *Family[K, V]) At(k K) *V {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[k]
	if !ok {
		if f.m == nil {
			f.m = map[K]*V{}
		}
		v = new(V)
		f.m[k] = v
	}
	return v
}

// Each calls fn for every slot in key order. fn runs without the family
// lock held, so it may call At.
func (f *Family[K, V]) Each(fn func(K, *V)) {
	f.mu.Lock()
	keys := slices.SortedFunc(maps.Keys(f.m), func(a, b K) int { return a.Compare(b) })
	f.mu.Unlock()
	for _, k := range keys {
		fn(k, f.At(k))
	}
}

// latencyBuckets are the histogram upper bounds in seconds: a log scale
// from 100 µs to 10 s bracketing the paper's 300 ms budget.
var latencyBuckets = [...]float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// Histogram is a fixed-bucket latency histogram over latencyBuckets. The
// zero value is ready to use.
type Histogram struct {
	mu     sync.Mutex
	counts [len(latencyBuckets) + 1]int64 // one per bucket, plus +Inf at the end
	sum    float64
	n      int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets[:], sec)
	h.mu.Lock()
	h.counts[i]++
	h.sum += sec
	h.n++
	h.mu.Unlock()
}

// Snapshot returns the histogram's totals: observation count and sum in
// seconds.
func (h *Histogram) Snapshot() (n int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n, h.sum
}

// Quantile estimates the q-quantile (q in (0, 1]) in seconds from the
// bucket counts: the upper bound of the bucket holding the nearest-rank
// observation, a conservative estimate that is exact for the question the
// 300 ms budget asks ("is the tail under the bound?"). Observations past
// the last bucket report the largest bound. Zero when nothing was
// observed.
func (h *Histogram) Quantile(q float64) float64 {
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

// Render writes the histogram as cumulative name_bucket{le="..."} lines,
// then name_sum and name_count. It copies the histogram out first, so a
// slow scraper never holds up Observe.
func (h *Histogram) Render(e Exposition, name string) {
	h.mu.Lock()
	counts, sum, n := h.counts, h.sum, h.n
	h.mu.Unlock()
	cum := int64(0)
	for i, le := range latencyBuckets {
		cum += counts[i]
		e.Int(name+"_bucket", cum, "le", fmt.Sprintf("%g", le))
	}
	cum += counts[len(latencyBuckets)]
	e.Int(name+"_bucket", cum, "le", "+Inf")
	e.Float(name+"_sum", sum)
	e.Int(name+"_count", n)
}

// Exposition writes samples in the Prometheus text exposition format, one
// name{label="value",...} value line each. labels alternate label names
// and values; label values are quoted Go-style.
type Exposition struct{ W io.Writer }

// Int writes one integer sample.
func (e Exposition) Int(name string, v int64, labels ...string) {
	e.line(name, labels, strconv.FormatInt(v, 10))
}

// Float writes one floating-point sample in %g form.
func (e Exposition) Float(name string, v float64, labels ...string) {
	e.line(name, labels, fmt.Sprintf("%g", v))
}

// Bool writes a 0/1 gauge.
func (e Exposition) Bool(name string, v bool, labels ...string) {
	n := int64(0)
	if v {
		n = 1
	}
	e.Int(name, n, labels...)
}

func (e Exposition) line(name string, labels []string, value string) {
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		name += sep + labels[i] + "=" + strconv.Quote(labels[i+1])
		sep = ","
	}
	if sep == "," {
		name += "}"
	}
	_, _ = io.WriteString(e.W, name+" "+value+"\n")
}

// MetricsHandler serves GET /metrics: the text exposition content type,
// then whatever render writes.
func MetricsHandler(render func(Exposition)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		render(Exposition{W: w})
	}
}
