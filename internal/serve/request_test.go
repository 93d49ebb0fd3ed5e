package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRecycledRequestStateMatchesFresh drives a mixed predict script
// through one request state, reset between requests exactly as the pool
// resets it, and requires every response to match byte for byte (with
// elapsed_ms masked) a fresh server's answer from a fresh state. The
// script runs twice so every step also follows every other: a reset rule
// that misses a field shows up as a drifted value or a leaked target.
func TestRecycledRequestStateMatchesFresh(t *testing.T) {
	const ce = `"ce":[{"t":1,"row":42,"col":3,"bank":0,"rank":1},` +
		`{"t":2,"row":42,"col":9,"bank":0,"rank":1,"bits":2},` +
		`{"t":2.5,"row":42,"col":9,"bank":0,"rank":1,"bits":3}]`
	script := []struct {
		api  predictAPI
		body string
		code int
	}{
		// A multi-target query with a CE window.
		{predictV2, `{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["wer","pue","ue_risk"],` + ce + `}`, http.StatusOK},
		// Sparse CE events decode into the elements the window above filled.
		{predictV2, `{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["ue_risk"],"ce":[{"t":3},{"t":4}]}`, http.StatusOK},
		{predictV2, `{"queries":[{"workload":"backprop","trefp":0.618,"temp_c":50,"targets":["pue"]},` +
			`{"workload":"kmeans","trefp":2.283,"temp_c":55,` + ce + `}]}`, http.StatusOK},
		// A batch failing mid-way leaves resolved items on both sides of
		// the failure.
		{predictV2, `{"queries":[{"workload":"nw","trefp":1,"temp_c":60,"targets":["wer"]},` +
			`{"workload":"doom","trefp":1,"temp_c":60},{"workload":"backprop","trefp":1,"temp_c":60}]}`, http.StatusNotFound},
		{predictV1, `{"workload":"srad(par)","trefp":2.283,"temp_c":60}`, http.StatusOK},
	}
	do := func(s *Server, api predictAPI, body string, rq *request) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.servePredict(api, rec, req, rq)
		return rec.Code, string(canonicalWire(rec.Body.Bytes()))
	}

	want := make([]string, len(script))
	for i, step := range script {
		fresh := New(ueDataset(t), Options{Quick: true, Seed: 3, Workers: 2})
		code, body := do(fresh, step.api, step.body, new(request))
		fresh.Close()
		if code != step.code {
			t.Fatalf("step %d: fresh server = %d, want %d: %s", i, code, step.code, body)
		}
		want[i] = body
	}

	s := New(ueDataset(t), Options{Quick: true, Seed: 3, Workers: 2})
	defer s.Close()
	rq := new(request)
	for pass := 0; pass < 2; pass++ {
		for i, step := range script {
			code, body := do(s, step.api, step.body, rq)
			rq.reset()
			if code != step.code || body != want[i] {
				t.Fatalf("pass %d step %d: recycled state answered %d\n%s\nfresh server answered %d\n%s",
					pass, i, code, body, step.code, want[i])
			}
		}
	}
}
