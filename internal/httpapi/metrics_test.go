package httpapi

import (
	"cmp"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRequestsSnapshotAndRender: counters come back in (endpoint, code)
// order whatever order they were first hit in, and Render writes one
// labelled line per counter in that order.
func TestRequestsSnapshotAndRender(t *testing.T) {
	var rq Requests
	if got := rq.Snapshot(); got == nil || len(got) != 0 {
		t.Fatalf("empty snapshot = %#v, want a non-nil empty slice", got)
	}
	handler := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if code != http.StatusOK {
				w.WriteHeader(code)
			}
		}
	}
	for _, hit := range []struct {
		endpoint string
		code     int
	}{
		{"/v2/predict", 404}, {"/healthz", 200}, {"/v2/predict", 200},
		{"/v2/predict", 404}, {"/metrics", 200}, {"/v2/predict", 200}, {"/v2/predict", 200},
	} {
		rq.Counted(hit.endpoint, handler(hit.code))(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	}
	want := []RequestCount{
		{"/healthz", 200, 1}, {"/metrics", 200, 1}, {"/v2/predict", 200, 3}, {"/v2/predict", 404, 2},
	}
	got := rq.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	var b strings.Builder
	rq.Render(&b, "x_requests_total")
	wantText := `x_requests_total{endpoint="/healthz",code="200"} 1
x_requests_total{endpoint="/metrics",code="200"} 1
x_requests_total{endpoint="/v2/predict",code="200"} 3
x_requests_total{endpoint="/v2/predict",code="404"} 2
`
	if b.String() != wantText {
		t.Fatalf("render =\n%s\nwant\n%s", b.String(), wantText)
	}
}

type pairKey struct {
	a string
	b int
}

func (k pairKey) Compare(o pairKey) int {
	return cmp.Or(cmp.Compare(k.a, o.a), cmp.Compare(k.b, o.b))
}

// TestFamilyAtAndEach: At creates a slot once and returns the same slot
// after, Each walks in key order, and a lookup of an existing slot
// allocates nothing.
func TestFamilyAtAndEach(t *testing.T) {
	var f Family[pairKey, Counter]
	keys := []pairKey{{"b", 2}, {"a", 9}, {"b", 1}, {"a", 1}}
	for _, k := range keys {
		f.At(k).Inc()
	}
	if f.At(pairKey{"b", 2}) != f.At(pairKey{"b", 2}) {
		t.Fatal("At returned two slots for one key")
	}
	f.At(pairKey{"a", 9}).Inc()
	var order []pairKey
	var values []int64
	f.Each(func(k pairKey, c *Counter) {
		order = append(order, k)
		values = append(values, c.Value())
	})
	wantOrder := []pairKey{{"a", 1}, {"a", 9}, {"b", 1}, {"b", 2}}
	wantValues := []int64{1, 2, 1, 1}
	for i := range wantOrder {
		if order[i] != wantOrder[i] || values[i] != wantValues[i] {
			t.Fatalf("Each = %v %v, want %v %v", order, values, wantOrder, wantValues)
		}
	}
	k := pairKey{"a", 1}
	if n := testing.AllocsPerRun(100, func() { f.At(k).Inc() }); n != 0 {
		t.Fatalf("At on an existing slot allocates %v times", n)
	}
}

// TestFamilyConcurrent: concurrent first uses of one key share a slot,
// and Each may run beside them.
func TestFamilyConcurrent(t *testing.T) {
	const workers, rounds = 4, 500
	var f Family[pairKey, Counter]
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				f.At(pairKey{"k", i % 7}).Inc()
				if i%100 == w {
					f.Each(func(pairKey, *Counter) {})
				}
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	f.Each(func(_ pairKey, c *Counter) { total += c.Value() })
	if total != workers*rounds {
		t.Fatalf("family counted %d, want %d", total, workers*rounds)
	}
}

// TestHistogram covers the quantile estimate at its edges and the
// cumulative exposition.
func TestHistogram(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", q)
	}
	if n, sum := h.Snapshot(); n != 0 || sum != 0 {
		t.Fatalf("empty snapshot = %d, %v", n, sum)
	}

	// A value exactly on a bound lands in that bound's bucket.
	h.Observe(time.Millisecond)
	if q := h.Quantile(0.5); q != 0.001 {
		t.Fatalf("1 ms on the 0.001 bound: p50 = %v, want 0.001", q)
	}
	h.Observe(20 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	if q := h.Quantile(0.5); q != 0.03 {
		t.Fatalf("p50 = %v, want 0.03", q)
	}
	if q := h.Quantile(0); q != 0.001 {
		t.Fatalf("q=0 clamps to rank 1: %v, want 0.001", q)
	}
	// Past the last bound: counted in +Inf, reported as the last bound.
	h.Observe(time.Minute)
	if q := h.Quantile(1); q != 10 {
		t.Fatalf("overflow p100 = %v, want 10", q)
	}
	if n, sum := h.Snapshot(); n != 4 || sum != 60.041 {
		t.Fatalf("snapshot = %d, %v, want 4, 60.041", n, sum)
	}

	var b strings.Builder
	h.Render(Exposition{W: &b}, "lat_seconds")
	want := `lat_seconds_bucket{le="0.0001"} 0
lat_seconds_bucket{le="0.0003"} 0
lat_seconds_bucket{le="0.001"} 1
lat_seconds_bucket{le="0.003"} 1
lat_seconds_bucket{le="0.01"} 1
lat_seconds_bucket{le="0.03"} 3
lat_seconds_bucket{le="0.1"} 3
lat_seconds_bucket{le="0.3"} 3
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="3"} 3
lat_seconds_bucket{le="10"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 60.041
lat_seconds_count 4
`
	if b.String() != want {
		t.Fatalf("render =\n%s\nwant\n%s", b.String(), want)
	}
}

// TestExposition pins the line format: bare names, quoted and escaped
// label values, %g floats and 0/1 booleans.
func TestExposition(t *testing.T) {
	var b strings.Builder
	e := Exposition{W: &b}
	e.Int("a_total", 7)
	e.Float("b_score", 0.25)
	e.Float("b_score", 1e-7, "feature", "temp_c")
	e.Bool("c_up", true, "backend", `http://h"1`)
	e.Bool("c_up", false, "backend", "h2", "zone", "z")
	want := `a_total 7
b_score 0.25
b_score{feature="temp_c"} 1e-07
c_up{backend="http://h\"1"} 1
c_up{backend="h2",zone="z"} 0
`
	if b.String() != want {
		t.Fatalf("exposition =\n%s\nwant\n%s", b.String(), want)
	}

	rec := httptest.NewRecorder()
	MetricsHandler(func(e Exposition) { e.Int("x", 1) })(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" || rec.Body.String() != "x 1\n" {
		t.Fatalf("metrics handler = %q %q", ct, rec.Body)
	}
}
