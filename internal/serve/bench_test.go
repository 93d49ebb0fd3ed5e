package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// replayBody is a resettable request body so the decode benchmark can
// replay the same document without re-wrapping a reader every op.
type replayBody struct{ strings.Reader }

func (*replayBody) Close() error { return nil }

// BenchmarkDecodePredictV2 isolates the pooled /v2 request decode: one op
// takes a request state from requestPool, decodes a single-query document
// carrying explicit targets and a CE telemetry window into it through the
// /v2 surface's decode, and recycles it. Tracked in
// BENCH_<machine-class>.json by scripts/bench.sh.
func BenchmarkDecodePredictV2(b *testing.B) {
	const doc = `{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["ue_risk"],` +
		`"ce":[{"t":1,"row":42,"col":3,"bank":0,"rank":1},` +
		`{"t":2,"row":42,"col":9,"bank":0,"rank":1,"bits":2},` +
		`{"t":2.5,"row":42,"col":9,"bank":0,"rank":1,"bits":3}]}`
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v2/predict", nil)
	req.Body = body
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(doc)
		rq := requestPool.Get().(*request)
		if e := predictV2.decode(req, rq); e != nil {
			b.Fatalf("decode failed: %v", e)
		}
		putRequest(rq)
	}
}

// BenchmarkServePredictV2 is the canonical serving-layer benchmark: one op
// is a warm single-query POST /v2/predict straight into the handler (no
// network), exercising resolve, the pooled predict path and JSON response
// encoding. Tracked in BENCH_<machine-class>.json by scripts/bench.sh.
func BenchmarkServePredictV2(b *testing.B) {
	s := New(testDataset(b), Options{Quick: true, Seed: 3, Workers: 2})
	defer s.Close()
	h := s.Handler()

	const body = `{"workload":"backprop","trefp":2.283,"temp_c":60}`
	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v2/predict", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	// Warm: first query trains and caches the models and primes the pools.
	if code := do(); code != http.StatusOK {
		b.Fatalf("warmup returned %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("request %d returned %d", i, code)
		}
	}
}
