package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the parent span id from a client (or the router's
// outbound transport) to the handler wrapper on the other side.
const spanHeader = "X-Perfbench-Span"

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Query is the fleet query index a client span sent (-1 otherwise).
	Query int `json:"query"`
	// Due is a client span's scheduled send time.
	Due int64 `json:"due_ns,omitempty"`
	// Targets lists the targets a serve.handler span answered.
	Targets []string `json:"targets,omitempty"`
	// Abandoned marks a cluster.attempt the router had given up on when it
	// ended: a losing hedge, canceled once the other attempt answered. It
	// may outlast the router span that launched it.
	Abandoned bool `json:"abandoned,omitempty"`
	// body is the captured response of a serve.handler span, parsed for
	// Targets when the run ends.
	body []byte
}

// tracer keeps spans in memory; a disabled tracer records nothing and
// wraps nothing, so the untraced run measures the program alone.
type tracer struct {
	on bool
	// recording gates the wrappers and client spans: only the traced
	// phase records, so cold set-up requests stay out of the layer figures.
	recording atomic.Bool
	base      time.Time
	next      atomic.Int64
	mu        sync.Mutex
	spans     []*span
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

// active reports whether request spans are being recorded.
func (t *tracer) active() bool { return t.on && t.recording.Load() }

func (t *tracer) setActive(on bool) { t.recording.Store(on) }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) add(s *span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// direct records a span around an in-process call.
func (t *tracer) direct(layer string, start, end time.Time) {
	if !t.on {
		return
	}
	t.add(&span{ID: t.newID(), Layer: layer, Start: t.ns(start), End: t.ns(end), Query: -1})
}

type spanKey struct{}

// parentOf reads the span id a request carries.
func parentOf(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	return id
}

// bodyRecorder tees a handler's response body for later parsing.
type bodyRecorder struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (b *bodyRecorder) Write(p []byte) (int, error) {
	b.buf.Write(p)
	return b.ResponseWriter.Write(p)
}

// wrapServe records a span around every request a serve.Server handler
// answers: serve.handler for /v2/predict, serve.ingest and serve.retrain
// for the write endpoints.
func (t *tracer) wrapServe(h http.Handler) http.Handler {
	if !t.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		layer := ""
		switch r.URL.Path {
		case "/v2/predict":
			layer = "serve.handler"
		case "/v2/ingest":
			layer = "serve.ingest"
		case "/v2/retrain":
			layer = "serve.retrain"
		default:
			h.ServeHTTP(w, r)
			return
		}
		s := &span{ID: t.newID(), Parent: parentOf(r), Layer: layer, Query: -1}
		s.Start = t.ns(time.Now())
		if layer == "serve.handler" {
			rec := &bodyRecorder{ResponseWriter: w}
			h.ServeHTTP(rec, r)
			s.body = rec.buf.Bytes()
		} else {
			h.ServeHTTP(w, r)
		}
		s.End = t.ns(time.Now())
		t.add(s)
	})
}

// wrapRouter records a cluster.router span around every routed predict
// and hands its id to the router's outbound transport via the context.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	if !t.on {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/predict" || !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		s := &span{ID: t.newID(), Parent: parentOf(r), Layer: "cluster.router", Query: -1}
		s.Start = t.ns(time.Now())
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ID)))
		s.End = t.ns(time.Now())
		t.add(s)
	})
}

// attemptTransport is the router's outbound transport in the traced run:
// it records a cluster.attempt span per proxied sub-request, from the
// send until the router finished reading the body, and passes the span id
// to the backend.
type attemptTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (a *attemptTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(int64)
	if !ok {
		return a.base.RoundTrip(req)
	}
	s := &span{ID: a.t.newID(), Parent: parent, Layer: "cluster.attempt", Query: -1}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	s.Start = a.t.ns(time.Now())
	end := func() {
		s.End = a.t.ns(time.Now())
		// Read after the end time: an attempt that ends after its router
		// span did so after the router canceled it.
		s.Abandoned = req.Context().Err() != nil
		a.t.add(s)
	}
	resp, err := a.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// layerStats summarizes one layer's spans: durations and self times in µs.
type layerStats struct {
	dur, self []float64
}

// analysis is the traced run's attribution of client latency to layers.
type analysis struct {
	layers map[string]*layerStats
	// per client request (predicts only): client, transport, router self
	// and backend-covered times in µs.
	client, transport, routerSelf, backend []float64
	// serveSelf is each serve.handler span minus the in-process predict
	// time of the targets it answered.
	serveSelf []float64
	handler   []float64
	ingest    []float64
}

// analyze computes self times and the per-request split. predictUS gives
// the in-process predict time of (query, target), 0 when unknown.
func (t *tracer) analyze(predictUS func(query int, target string) float64) *analysis {
	byID := make(map[int64]*span, len(t.spans))
	kids := map[int64][]*span{}
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	a := &analysis{layers: map[string]*layerStats{}}
	for _, s := range t.spans {
		ls := a.layers[s.Layer]
		if ls == nil {
			ls = &layerStats{}
			a.layers[s.Layer] = ls
		}
		d := s.End - s.Start
		ls.dur = append(ls.dur, float64(d)/1e3)
		ls.self = append(ls.self, float64(d-covered(s, kids[s.ID]))/1e3)
	}
	// queryOf walks up to the client span that started a chain.
	queryOf := func(s *span) int {
		for s != nil {
			if s.Layer == "client" {
				return s.Query
			}
			s = byID[s.Parent]
		}
		return -1
	}
	for _, s := range t.spans {
		switch s.Layer {
		case "serve.handler":
			a.handler = append(a.handler, float64(s.End-s.Start)/1e3)
			var resp struct {
				Predictions map[string]json.RawMessage `json:"predictions"`
			}
			if json.Unmarshal(s.body, &resp) == nil {
				for name := range resp.Predictions {
					s.Targets = append(s.Targets, name)
				}
				sort.Strings(s.Targets)
			}
			self := float64(s.End-s.Start) / 1e3
			q := queryOf(s)
			for _, tg := range s.Targets {
				self -= predictUS(q, tg)
			}
			a.serveSelf = append(a.serveSelf, self)
		case "serve.ingest":
			a.ingest = append(a.ingest, float64(s.End-s.Start)/1e3)
		case "client":
			var outer *span
			for _, k := range kids[s.ID] {
				if k.Layer == "cluster.router" || k.Layer == "serve.handler" {
					outer = k
				}
			}
			if outer == nil {
				continue // checkSpans reports it
			}
			c := float64(s.End-s.Start) / 1e3
			o := float64(outer.End-outer.Start) / 1e3
			a.client = append(a.client, c)
			a.transport = append(a.transport, c-o)
			if outer.Layer == "serve.handler" {
				a.backend = append(a.backend, o)
				continue
			}
			var handlers []*span
			for _, at := range kids[outer.ID] {
				handlers = append(handlers, kids[at.ID]...)
			}
			cov := float64(covered(outer, handlers)) / 1e3
			a.backend = append(a.backend, cov)
			a.routerSelf = append(a.routerSelf, o-cov)
		}
	}
	return a
}

// checkSpans checks the traced attribution request by request and returns
// every violation. Each recorded child span must lie inside its parent's
// interval, except an abandoned attempt and the handler it reached. Each
// client predict must have exactly one outer span: the router's or the
// backend handler's. Each router span must reach a backend handler
// through one of its attempts. And the backend handlers under attempts
// must be the sub-requests the router counted: at least the answered ones
// and at most every attempt, hedged and retried ones included.
func (t *tracer) checkSpans(sub *subreqCount) []string {
	byID := make(map[int64]*span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	var bad []string
	outer := map[int64]int{}    // client span → outer spans under it
	reached := map[int64]bool{} // router span → an attempt reached a handler
	handlers := 0
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			bad = append(bad, fmt.Sprintf("%s span %d: parent %d was not recorded", s.Layer, s.ID, s.Parent))
			continue
		}
		if !s.Abandoned && !p.Abandoned && (s.Start < p.Start || s.End > p.End) {
			bad = append(bad, fmt.Sprintf("%s span %d [%d, %d] ns lies outside its parent %s span %d [%d, %d] ns",
				s.Layer, s.ID, s.Start, s.End, p.Layer, p.ID, p.Start, p.End))
		}
		switch {
		case p.Layer == "client" && (s.Layer == "serve.handler" || s.Layer == "cluster.router"):
			outer[p.ID]++
		case p.Layer == "cluster.attempt" && s.Layer == "serve.handler":
			handlers++
			reached[p.Parent] = true
		}
	}
	for _, s := range t.spans {
		switch {
		case s.Layer == "client" && outer[s.ID] != 1:
			bad = append(bad, fmt.Sprintf("client span %d (query %d): %d outer spans, want 1", s.ID, s.Query, outer[s.ID]))
		case s.Layer == "cluster.router" && !reached[s.ID]:
			bad = append(bad, fmt.Sprintf("cluster.router span %d: no attempt reached a backend handler", s.ID))
		}
	}
	if sub != nil {
		logf("traced phase: %d backend handlers under router attempts; router counted %v answered, %v failed, %v hedged or retried",
			handlers, sub.ok, sub.errs, sub.extra)
		if h := float64(handlers); h < sub.ok || h > sub.ok+sub.errs+sub.extra {
			bad = append(bad, fmt.Sprintf("%d backend handler spans under router attempts, router counted %v answered and %v failed sub-requests (%v hedged or retried)",
				handlers, sub.ok, sub.errs, sub.extra))
		}
	}
	return bad
}

// covered is how much of parent's interval the children's union covers.
func covered(parent *span, children []*span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders the per-layer self-time table.
func (a *analysis) selfTable() string {
	names := make([]string, 0, len(a.layers))
	for n := range a.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-24s %8s %12s %12s %12s %12s\n", "layer", "spans", "dur p50 µs", "dur p99 µs", "self p50 µs", "self p99 µs")
	for _, n := range names {
		ls := a.layers[n]
		fmt.Fprintf(&b, "%-24s %8d %12.1f %12.1f %12.1f %12.1f\n", n, len(ls.dur),
			median(ls.dur), quantile(ls.dur, 0.99), median(ls.self), quantile(ls.self, 0.99))
	}
	return b.String()
}

// finishTrace writes the span file and the self-time table, and sets the
// per-layer metrics derived from spans.
func (r *runner) finishTrace() error {
	a := r.tracer.analyze(r.predictUS)
	path := filepath.Join(r.opts.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.opts.workload, r.opts.seed))
	if err := r.tracer.writeSpans(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\nself time, traced run:\n%s",
		len(r.tracer.spans), path, a.selfTable())
	bad := r.tracer.checkSpans(r.tracedSubreqs)
	for i, msg := range bad {
		if i == 10 {
			r.rep.fail("span attribution: %d more violations", len(bad)-i)
			break
		}
		r.rep.fail("span attribution: %s", msg)
	}
	if len(a.client) > 0 {
		r.rep.set("transport.us.p50", median(a.transport))
		r.rep.set("serve.handler_us.p50", median(a.handler))
		r.rep.set("serve.handler_us.p99", quantile(a.handler, 0.99))
		r.rep.set("serve.self_us.p50", median(a.serveSelf))
		parts := median(a.transport) + median(a.backend)
		if len(a.routerSelf) > 0 {
			r.rep.set("cluster.self_us.p50", median(a.routerSelf))
			r.rep.set("cluster.self_us.p99", quantile(a.routerSelf, 0.99))
			parts += median(a.routerSelf)
		}
		gap := (parts - median(a.client)) / median(a.client)
		r.rep.set("trace.split_gap_frac", gap)
		fmt.Fprintf(os.Stderr, "split of %d traced predicts (p50 µs): client %.1f = transport %.1f + router self %.1f + backend %.1f (gap %+.1f%%, tolerance ±%.0f%%)\n",
			len(a.client), median(a.client), median(a.transport), median(a.routerSelf), median(a.backend),
			100*gap, 100*splitTolerance)
		if gap > splitTolerance || gap < -splitTolerance {
			r.rep.fail("traced split does not add up: gap %+.1f%%", 100*gap)
		}
	}
	if len(a.ingest) > 0 {
		r.rep.set("serve.ingest_us.p50", median(a.ingest))
	}
	return nil
}

// splitTolerance bounds how far the sum of the per-layer p50s may sit from
// the client p50. Per request the parts add up exactly by construction, so
// only the medians' non-additivity moves the gap; checkSpans is what can
// catch a wrong attribution.
const splitTolerance = 0.25
