package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/httpapi"
	"repro/internal/workload"
	"repro/internal/xgene"
)

// testDataset builds one small campaign corpus shared by every test in the
// package (the dataset is immutable; each test gets its own Server).
var (
	dsOnce sync.Once
	dsVal  *core.Dataset
	dsErr  error
)

func testDataset(t testing.TB) *core.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		labels := []string{"backprop", "nw", "srad(par)", "memcached", "random"}
		var specs []workload.Spec
		for _, l := range labels {
			spec, err := workload.FindSpec(l)
			if err != nil {
				dsErr = err
				return
			}
			specs = append(specs, spec)
		}
		profiles, err := core.BuildProfiles(specs, workload.SizeTest, 3, 0)
		if err != nil {
			dsErr = err
			return
		}
		srv := xgene.MustNewServer(xgene.Config{Scale: 32})
		dsVal, dsErr = core.BuildDataset(srv, profiles, specs, core.CampaignOptions{Reps: 4})
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

// newTestServer stands up a Server plus its httptest front end. The
// profiling seed matches testDataset's so cached query profiles are the
// corpus profiles.
func newTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	s := New(testDataset(t), Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// readBody drains and closes a response body.
func readBody(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func post(t testing.TB, ts *httptest.Server, path, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, readBody(t, resp)
}

func postPredict(t testing.TB, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	return post(t, ts, "/v1/predict", "application/json", body)
}

func mustSpec(t testing.TB, label string) workload.Spec {
	t.Helper()
	spec, err := workload.FindSpec(label)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func get(t testing.TB, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, data)
	}
	var body struct {
		Status    string `json:"status"`
		WERRows   int    `json:"wer_rows"`
		PUERows   int    `json:"pue_rows"`
		Workloads int    `json:"workloads"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.WERRows == 0 || body.PUERows == 0 || body.Workloads == 0 {
		t.Fatalf("healthz body: %s", data)
	}
}

func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := get(t, ts, "/v1/workloads")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workloads = %d: %s", resp.StatusCode, data)
	}
	var body struct {
		Workloads []struct {
			Label    string `json:"label"`
			Threads  int    `json:"threads"`
			Profiled bool   `json:"profiled"`
			InCorpus bool   `json:"in_corpus"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Workloads) != len(workload.ExtendedSet()) {
		t.Fatalf("%d workloads listed", len(body.Workloads))
	}
	inCorpus := 0
	for _, w := range body.Workloads {
		if w.Profiled {
			t.Fatalf("%s profiled before any query", w.Label)
		}
		if w.InCorpus {
			inCorpus++
		}
	}
	if inCorpus == 0 {
		t.Fatal("no corpus workloads flagged")
	}
}

func TestModelsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := get(t, ts, "/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("models = %d: %s", resp.StatusCode, data)
	}
	var body struct {
		Kinds     []string `json:"kinds"`
		InputSets []int    `json:"input_sets"`
		Trained   []struct {
			Kind     string  `json:"kind"`
			InputSet int     `json:"input_set"`
			Target   string  `json:"target"`
			TrainMS  float64 `json:"train_ms"`
		} `json:"trained"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Kinds) != 3 || len(body.InputSets) != 3 {
		t.Fatalf("models body: %s", data)
	}
	if len(body.Trained) != 0 {
		t.Fatal("models trained before any query")
	}

	// One prediction lazily trains the default WER and PUE predictors.
	if resp, data := postPredict(t, ts, `{"workload":"memcached","trefp":2.283,"temp_c":60}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d: %s", resp.StatusCode, data)
	}
	_, data = get(t, ts, "/v1/models")
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, tr := range body.Trained {
		targets[tr.Target] = true
		if tr.Kind != string(core.ModelKNN) {
			t.Fatalf("unexpected trained kind %q", tr.Kind)
		}
	}
	if !targets["wer"] || !targets["pue"] {
		t.Fatalf("trained entries missing a target: %s", data)
	}
}

func TestPredictSingleMatchesDirectModel(t *testing.T) {
	s, ts := newTestServer(t)
	resp, data := postPredict(t, ts, `{"workload":"srad(par)","trefp":2.283,"temp_c":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d: %s", resp.StatusCode, data)
	}
	var got PredictResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.WERByRank) != dram.NumRanks {
		t.Fatalf("%d rank predictions", len(got.WERByRank))
	}
	if got.WERMean <= 0 || got.PUE < 0 || got.PUE > 1 {
		t.Fatalf("implausible prediction: %s", data)
	}
	if got.Model != string(core.ModelKNN) || got.VDD != dram.MinVDD {
		t.Fatalf("defaults not applied: %s", data)
	}

	// The served numbers must equal a model trained directly on the same
	// corpus (training is deterministic), bit-for-bit.
	spec, err := workload.FindSpec("srad(par)")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := s.profileFor(s.gen.Load(), spec)
	if err != nil {
		t.Fatal(err)
	}
	werModel, err := core.Train(testDataset(t), core.TargetWER, core.ModelKNN, core.InputSet1, 2)
	if err != nil {
		t.Fatal(err)
	}
	pueModel, err := core.Train(testDataset(t), core.TargetPUE, core.ModelKNN, core.InputSet2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantWER, err := werModel.Predict(core.Query{
		Features: prof.Features, TREFP: 2.283, VDD: dram.MinVDD, TempC: 60,
		Rank: core.RankDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < dram.NumRanks; r++ {
		if got.WERByRank[r] != wantWER.ByRank[r] {
			t.Fatalf("rank %d: served %v != direct %v", r, got.WERByRank[r], wantWER.ByRank[r])
		}
	}
	wantPUE, err := pueModel.Predict(core.Query{
		Features: prof.Features, TREFP: 2.283, VDD: dram.MinVDD, TempC: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.PUE != wantPUE.Value {
		t.Fatalf("PUE: served %v != direct %v", got.PUE, wantPUE.Value)
	}
}

func TestPredictBatchBodyMatchesSingles(t *testing.T) {
	_, ts := newTestServer(t)
	queries := []PredictRequest{
		{Workload: "backprop", TREFP: 0.618, TempC: 50},
		{Workload: "nw", TREFP: 1.727, TempC: 60},
		{Workload: "memcached", TREFP: 2.283, TempC: 70, Model: "RDF"},
	}
	var singles []PredictResponse
	for _, q := range queries {
		b, _ := json.Marshal(q)
		resp, data := postPredict(t, ts, string(b))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single %s = %d: %s", q.Workload, resp.StatusCode, data)
		}
		var r PredictResponse
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		singles = append(singles, r)
	}
	b, _ := json.Marshal(map[string]any{"queries": queries})
	resp, data := postPredict(t, ts, string(b))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, data)
	}
	var batch struct {
		Results []PredictResponse `json:"results"`
	}
	if err := json.Unmarshal(data, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(queries) {
		t.Fatalf("%d batch results for %d queries", len(batch.Results), len(queries))
	}
	for i, r := range batch.Results {
		if r.WERMean != singles[i].WERMean || r.PUE != singles[i].PUE {
			t.Fatalf("query %d: batch (%v, %v) != single (%v, %v)",
				i, r.WERMean, r.PUE, singles[i].WERMean, singles[i].PUE)
		}
		for k := range r.WERByRank {
			if r.WERByRank[k] != singles[i].WERByRank[k] {
				t.Fatalf("query %d rank %d differs between batch and single", i, k)
			}
		}
	}
}

func TestPredictErrorPaths(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed json", `{"workload":`, http.StatusBadRequest},
		{"unknown field", `{"workload":"nw","trefp":1,"temp_c":60,"bogus":1}`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"doom","trefp":1,"temp_c":60}`, http.StatusNotFound},
		{"zero trefp", `{"workload":"nw","temp_c":60}`, http.StatusBadRequest},
		{"negative trefp", `{"workload":"nw","trefp":-1,"temp_c":60}`, http.StatusBadRequest},
		{"bad model", `{"workload":"nw","trefp":1,"temp_c":60,"model":"GPT"}`, http.StatusBadRequest},
		{"bad input set", `{"workload":"nw","trefp":1,"temp_c":60,"input_set":7}`, http.StatusBadRequest},
		{"negative vdd", `{"workload":"nw","trefp":1,"temp_c":60,"vdd":-2}`, http.StatusBadRequest},
		{"empty batch", `{"queries":[]}`, http.StatusBadRequest},
		{"batch with unknown workload", `{"queries":[{"workload":"doom","trefp":1,"temp_c":60}]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postPredict(t, ts, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("code = %d, want %d: %s", resp.StatusCode, tc.code, data)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("no error body: %s", data)
			}
		})
	}

	// Oversized batch.
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i <= httpapi.MaxBatch; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"workload":"nw","trefp":1,"temp_c":60}`)
	}
	sb.WriteString(`]}`)
	if resp, _ := postPredict(t, ts, sb.String()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d", resp.StatusCode)
	}
}

// TestMethodNotAllowed pins the uniform method contract across every
// endpoint: a wrong method is always 405 with the Allow header naming the
// one allowed method, and a POST with a non-JSON content type is 415.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/predict", "/v2/predict", "/v1/reload"} {
		resp, _ := get(t, ts, path)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("GET %s: Allow = %q, want POST", path, allow)
		}
		// Wrong content type on the right method: uniformly 415.
		if resp, _ := post(t, ts, path, "text/plain", "{}"); resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("text/plain POST %s = %d, want 415", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/workloads", "/v1/models", "/healthz", "/metrics"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Fatalf("POST %s: Allow = %q, want GET", path, allow)
		}
	}
}

// scrapeMetrics parses the plain-text exposition into name{labels} -> value.
func scrapeMetrics(t testing.TB, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, data := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metric line %q", line)
		}
		out[line[:sp]] = v
	}
	return out
}

func TestMetricsAccounting(t *testing.T) {
	_, ts := newTestServer(t)

	m := scrapeMetrics(t, ts)
	for _, k := range []string{
		"dramserve_profile_cache_hits_total",
		"dramserve_profile_cache_misses_total",
		"dramserve_model_registry_hits_total",
		"dramserve_model_registry_misses_total",
	} {
		if m[k] != 0 {
			t.Fatalf("%s = %v before any request", k, m[k])
		}
	}

	// First query: one profile miss, two model misses (WER + PUE).
	if resp, data := postPredict(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d: %s", resp.StatusCode, data)
	}
	m = scrapeMetrics(t, ts)
	if m["dramserve_profile_cache_misses_total"] != 1 || m["dramserve_profile_cache_hits_total"] != 0 {
		t.Fatalf("profile cache after first query: misses=%v hits=%v",
			m["dramserve_profile_cache_misses_total"], m["dramserve_profile_cache_hits_total"])
	}
	if m["dramserve_model_registry_misses_total"] != 2 || m["dramserve_model_registry_hits_total"] != 0 {
		t.Fatalf("model registry after first query: misses=%v hits=%v",
			m["dramserve_model_registry_misses_total"], m["dramserve_model_registry_hits_total"])
	}

	// Repeat query: pure hits, no new misses.
	if resp, data := postPredict(t, ts, `{"workload":"nw","trefp":2.283,"temp_c":70}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d: %s", resp.StatusCode, data)
	}
	m = scrapeMetrics(t, ts)
	if m["dramserve_profile_cache_misses_total"] != 1 || m["dramserve_profile_cache_hits_total"] != 1 {
		t.Fatalf("profile cache after repeat query: misses=%v hits=%v",
			m["dramserve_profile_cache_misses_total"], m["dramserve_profile_cache_hits_total"])
	}
	if m["dramserve_model_registry_misses_total"] != 2 || m["dramserve_model_registry_hits_total"] != 2 {
		t.Fatalf("model registry after repeat query: misses=%v hits=%v",
			m["dramserve_model_registry_misses_total"], m["dramserve_model_registry_hits_total"])
	}

	// A different workload misses the profile cache but hits the registry.
	if resp, data := postPredict(t, ts, `{"workload":"backprop","trefp":1.173,"temp_c":60}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d: %s", resp.StatusCode, data)
	}
	m = scrapeMetrics(t, ts)
	if m["dramserve_profile_cache_misses_total"] != 2 {
		t.Fatalf("profile cache misses = %v after new workload", m["dramserve_profile_cache_misses_total"])
	}
	if m["dramserve_model_registry_misses_total"] != 2 || m["dramserve_model_registry_hits_total"] != 4 {
		t.Fatalf("model registry after new workload: misses=%v hits=%v",
			m["dramserve_model_registry_misses_total"], m["dramserve_model_registry_hits_total"])
	}

	// Request accounting and latency histograms moved too.
	if m[`dramserve_requests_total{endpoint="/v1/predict",code="200"}`] != 3 {
		t.Fatalf("predict request count = %v", m[`dramserve_requests_total{endpoint="/v1/predict",code="200"}`])
	}
	if m["dramserve_predict_seconds_count"] != 3 {
		t.Fatalf("predict histogram count = %v", m["dramserve_predict_seconds_count"])
	}
	if m["dramserve_train_seconds_count"] != 2 {
		t.Fatalf("train histogram count = %v", m["dramserve_train_seconds_count"])
	}
	if resp, _ := postPredict(t, ts, `{"workload":"doom","trefp":1,"temp_c":60}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict unknown = %d", resp.StatusCode)
	}
	m = scrapeMetrics(t, ts)
	if m[`dramserve_requests_total{endpoint="/v1/predict",code="404"}`] != 1 {
		t.Fatal("404 not counted")
	}
}

// TestConcurrentPredict hammers /v1/predict from 32 goroutines; run under
// -race this exercises the singleflight registry (every goroutine races to
// train the same models) and the profile cache. All responses for the same
// query must be identical.
func TestConcurrentPredict(t *testing.T) {
	_, ts := newTestServer(t)
	const goroutines = 32
	const perG = 4
	bodies := []string{
		`{"workload":"nw","trefp":1.173,"temp_c":60}`,
		`{"workload":"backprop","trefp":2.283,"temp_c":50}`,
		`{"workload":"srad(par)","trefp":0.618,"temp_c":70}`,
		`{"workload":"memcached","trefp":1.727,"temp_c":60,"model":"RDF"}`,
	}
	results := make([][]PredictResponse, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				body := bodies[(g+i)%len(bodies)]
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
				if err != nil {
					errs[g] = err
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[g] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[g] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
					return
				}
				var r PredictResponse
				if err := json.Unmarshal(data, &r); err != nil {
					errs[g] = err
					return
				}
				results[g] = append(results[g], r)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// Same query => same answer, no matter which goroutine/batch ran it.
	byKey := map[string]PredictResponse{}
	for g := range results {
		for i, r := range results[g] {
			key := fmt.Sprintf("%s/%v/%v/%s", r.Workload, r.TREFP, r.TempC, r.Model)
			if prev, ok := byKey[key]; ok {
				if prev.WERMean != r.WERMean || prev.PUE != r.PUE {
					t.Fatalf("goroutine %d query %d: %s diverged: (%v,%v) vs (%v,%v)",
						g, i, key, r.WERMean, r.PUE, prev.WERMean, prev.PUE)
				}
			} else {
				byKey[key] = r
			}
		}
	}
	// The registry trained each needed model exactly once despite the race:
	// KNN wer/pue + RDF wer/pue.
	m := scrapeMetrics(t, ts)
	if m["dramserve_model_registry_misses_total"] != 4 {
		t.Fatalf("model registry misses = %v under concurrency, want 4",
			m["dramserve_model_registry_misses_total"])
	}
	if m["dramserve_profile_cache_misses_total"] != float64(len(bodies)) {
		t.Fatalf("profile cache misses = %v under concurrency, want %d",
			m["dramserve_profile_cache_misses_total"], len(bodies))
	}
}

// TestIntrospectionDuringColdPredict polls /v1/models and /v1/workloads
// while a cold predict is still profiling and training: the snapshot
// readers must stay race-free against the singleflight fills (this is the
// path -race guards).
func TestIntrospectionDuringColdPredict(t *testing.T) {
	_, ts := newTestServer(t)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
			strings.NewReader(`{"workload":"random","trefp":1.173,"temp_c":60,"model":"RDF"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("cold predict status %d", resp.StatusCode)
			}
		}
		errCh <- err
	}()
	for done := false; !done; {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
			for _, path := range []string{"/v1/models", "/v1/workloads"} {
				if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusOK {
					t.Fatalf("%s = %d during cold predict", path, resp.StatusCode)
				}
			}
		}
	}
}

func TestServerClose(t *testing.T) {
	s, ts := newTestServer(t)
	if resp, data := postPredict(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d: %s", resp.StatusCode, data)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	resp, data := postPredict(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict after close = %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "closed") && !strings.Contains(string(data), "cancel") {
		t.Fatalf("close error not surfaced: %s", data)
	}
	// A batch body after close must error too (the resolve fan-out is
	// cancelled), never crash the process on skipped entries.
	resp, data = postPredict(t, ts, `{"queries":[{"workload":"nw","trefp":1.173,"temp_c":60},{"workload":"backprop","trefp":1.173,"temp_c":60}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch predict after close = %d: %s", resp.StatusCode, data)
	}
}

func TestContextCancellationStopsServer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := New(testDataset(t), Options{Quick: true, Seed: 3, Workers: 2, Context: ctx})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, data := postPredict(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d: %s", resp.StatusCode, data)
	}
	cancel()
	// Cancellation propagates asynchronously via context.AfterFunc; the
	// stop channel is what fill waiters select on.
	select {
	case <-s.stop:
	case <-time.After(5 * time.Second):
		t.Fatal("context cancellation did not close the server")
	}
}
