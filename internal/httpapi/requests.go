package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Value() int64 { return c.v.Load() }

// RequestCount is one (endpoint, status code) request counter.
type RequestCount struct {
	Endpoint string `json:"endpoint"`
	Code     int    `json:"code"`
	Requests int64  `json:"requests"`
}

type requestKey struct {
	endpoint string
	code     int
}

// Requests counts served requests per (endpoint, status code). The zero
// value is ready to use.
type Requests struct {
	mu sync.Mutex
	m  map[requestKey]*Counter
}

func (rq *Requests) count(endpoint string, code int) {
	k := requestKey{endpoint, code}
	rq.mu.Lock()
	c, ok := rq.m[k]
	if !ok {
		if rq.m == nil {
			rq.m = map[requestKey]*Counter{}
		}
		c = &Counter{}
		rq.m[k] = c
	}
	rq.mu.Unlock()
	c.Inc()
}

// statusRecorder captures the response code for request accounting.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Counted wraps a handler with per-(endpoint, code) request counting.
func (rq *Requests) Counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		rq.count(endpoint, rec.code)
	}
}

// Snapshot returns every counter in (endpoint, code) order.
func (rq *Requests) Snapshot() []RequestCount {
	rq.mu.Lock()
	out := make([]RequestCount, 0, len(rq.m))
	for k, c := range rq.m {
		out = append(out, RequestCount{Endpoint: k.endpoint, Code: k.code, Requests: c.Value()})
	}
	rq.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Endpoint != out[j].Endpoint {
			return out[i].Endpoint < out[j].Endpoint
		}
		return out[i].Code < out[j].Code
	})
	return out
}

// Render writes the family in the Prometheus text exposition format as
// name{endpoint="...",code="..."} lines, in Snapshot order.
func (rq *Requests) Render(w io.Writer, name string) {
	for _, c := range rq.Snapshot() {
		fmt.Fprintf(w, "%s{endpoint=%q,code=\"%d\"} %d\n", name, c.Endpoint, c.Code, c.Requests)
	}
}
