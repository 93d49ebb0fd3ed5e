package httpapi

import (
	"cmp"
	"io"
	"net/http"
	"strconv"
)

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

func (k requestKey) Compare(o requestKey) int {
	return cmp.Or(cmp.Compare(k.endpoint, o.endpoint), cmp.Compare(k.code, o.code))
}

// Requests counts served requests per (endpoint, status code). The zero
// value is ready to use.
type Requests struct {
	f Family[requestKey, Counter]
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
		rq.f.At(requestKey{endpoint, rec.code}).Inc()
	}
}

// Snapshot returns every counter in (endpoint, code) order.
func (rq *Requests) Snapshot() []RequestCount {
	out := []RequestCount{}
	rq.f.Each(func(k requestKey, c *Counter) {
		out = append(out, RequestCount{Endpoint: k.endpoint, Code: k.code, Requests: c.Value()})
	})
	return out
}

// Render writes the family in the Prometheus text exposition format as
// name{endpoint="...",code="..."} lines, in Snapshot order.
func (rq *Requests) Render(w io.Writer, name string) {
	RenderRequests(Exposition{W: w}, name, rq.Snapshot())
}

// RenderRequests writes a request snapshot as Render does.
func RenderRequests(e Exposition, name string, counts []RequestCount) {
	for _, c := range counts {
		e.Int(name, c.Requests, "endpoint", c.Endpoint, "code", strconv.Itoa(c.Code))
	}
}
