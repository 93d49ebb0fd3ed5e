package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/internal/xgene"
)

// testDataset builds one small campaign corpus shared by the e2e tests,
// the same fixture shape internal/serve and internal/fleet use.
var (
	dsOnce sync.Once
	dsVal  *core.Dataset
	dsErr  error
)

func testDataset(t testing.TB) *core.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		var specs []workload.Spec
		for _, l := range []string{"backprop", "random"} {
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
		dsVal, dsErr = core.BuildDataset(srv, profiles, specs, core.CampaignOptions{Reps: 2})
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

// perturbedDataset deep-copies the corpus and nudges one above-floor WER
// row: same workloads, different artifact fingerprint — the shape of a
// half-rolled-out artifact update.
func perturbedDataset(t *testing.T, ds *core.Dataset) *core.Dataset {
	t.Helper()
	out := &core.Dataset{Build: ds.Build, PUE: ds.PUE, Profiles: ds.Profiles}
	out.WER = append([]core.WERSample(nil), ds.WER...)
	for i := range out.WER {
		if out.WER[i].WER > core.WERFloor {
			out.WER[i].WER *= 1.5
			return out
		}
	}
	t.Fatal("no above-floor WER row to perturb")
	return nil
}

// testBackend is one dramserve behind an httptest listener.
type testBackend struct {
	srv *serve.Server
	ts  *httptest.Server
	// predictDelayMS, when set, stalls /v2/predict handling — an
	// artificially slow shard for the hedging test.
	predictDelayMS atomic.Int64
}

func newBackend(t *testing.T, ds *core.Dataset, artifactPath string) *testBackend {
	t.Helper()
	b := &testBackend{}
	b.srv = serve.New(ds, serve.Options{Quick: true, Seed: 3, Workers: 2, ArtifactPath: artifactPath})
	t.Cleanup(func() { b.srv.Close() })
	h := b.srv.Handler()
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := b.predictDelayMS.Load(); d > 0 && r.URL.Path == "/v2/predict" {
			select {
			case <-time.After(time.Duration(d) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(b.ts.Close)
	return b
}

func newTestRouter(t *testing.T, opts Options) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func postPredict(t testing.TB, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v2/predict", "application/json", strings.NewReader(body))
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

func getHealth(t testing.TB, base string) (*http.Response, HealthResponse) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return resp, hr
}

type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Field   string `json:"field"`
		Message string `json:"message"`
	} `json:"error"`
}

func decodeErr(t testing.TB, data []byte) wireError {
	t.Helper()
	var we wireError
	if err := json.Unmarshal(data, &we); err != nil {
		t.Fatalf("error body %s: %v", data, err)
	}
	return we
}

// TestRouterEndToEnd: two backends on the same artifact behind a router
// answer /v2 exactly like one backend would — same predictions, same
// fingerprint, same structured errors — and the router's own /healthz and
// /metrics report an agreeing pool.
func TestRouterEndToEnd(t *testing.T) {
	ds := testDataset(t)
	bA := newBackend(t, ds, "")
	bB := newBackend(t, ds, "")
	rt, rts := newTestRouter(t, Options{
		Backends:      []string{bA.ts.URL, bB.ts.URL},
		ProbeInterval: -1, // probed by hand for determinism
		Logf:          t.Logf,
	})
	rt.probeAll()

	_, wantFP := bA.srv.Identity()
	if resp, hr := getHealth(t, rts.URL); resp.StatusCode != http.StatusOK ||
		hr.Status != "ok" || hr.Healthy != 2 || hr.Fingerprint != wantFP || hr.FingerprintSkew {
		t.Fatalf("healthz = %d %+v, want ok/2 backends on %s", resp.StatusCode, hr, wantFP)
	}

	// A multi-target query through the router answers bit-identically to
	// the same query against a backend directly: split-and-merge is
	// invisible to the client.
	const body = `{"workload":"backprop","trefp":2.283,"temp_c":50}`
	resp, data := postPredict(t, rts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict via router = %d: %s", resp.StatusCode, data)
	}
	var routed serve.PredictResponseV2
	if err := json.Unmarshal(data, &routed); err != nil {
		t.Fatal(err)
	}
	if routed.Fingerprint != wantFP {
		t.Fatalf("routed fingerprint %s, want %s", routed.Fingerprint, wantFP)
	}
	dresp, ddata := postPredict(t, bA.ts.URL, body)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("predict direct = %d: %s", dresp.StatusCode, ddata)
	}
	var direct serve.PredictResponseV2
	if err := json.Unmarshal(ddata, &direct); err != nil {
		t.Fatal(err)
	}
	if len(routed.Predictions) != 2 {
		t.Fatalf("routed predictions = %v, want both targets", routed.Predictions)
	}
	for name, want := range direct.Predictions {
		got, ok := routed.Predictions[name]
		if !ok || got.Value != want.Value {
			t.Fatalf("prediction %s: router %+v, direct %+v", name, got, want)
		}
	}

	// A batch fans out per item and reassembles in order.
	batch := `{"queries":[` + body + `,{"workload":"random","trefp":1.1,"temp_c":60,"targets":["wer"]}]}`
	resp, data = postPredict(t, rts.URL, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch via router = %d: %s", resp.StatusCode, data)
	}
	var br serve.PredictBatchResponseV2
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Results[0].Workload != "backprop" || br.Results[1].Workload != "random" {
		t.Fatalf("batch results out of order: %s", data)
	}
	if br.Fingerprint != wantFP {
		t.Fatalf("batch fingerprint %s, want %s", br.Fingerprint, wantFP)
	}

	// Backend validation errors pass through verbatim — field, code and
	// status — and are never retried onto another backend.
	resp, data = postPredict(t, rts.URL, `{"workload":"nope","trefp":1,"temp_c":50}`)
	if we := decodeErr(t, data); resp.StatusCode != http.StatusNotFound ||
		we.Error.Code != "unknown_workload" || we.Error.Field != "workload" {
		t.Fatalf("unknown workload via router = %d %s", resp.StatusCode, data)
	}
	if got := rt.metrics.retries.Value(); got != 0 {
		t.Fatalf("a 4xx pass-through burned %d retries", got)
	}

	// Batch errors carry the dramserve "query %d:" locator.
	resp, data = postPredict(t, rts.URL, `{"queries":[`+body+`,{"workload":"nope","trefp":1,"temp_c":50}]}`)
	if we := decodeErr(t, data); resp.StatusCode != http.StatusNotFound ||
		!strings.HasPrefix(we.Error.Message, "query 1: ") {
		t.Fatalf("batch error via router = %d %s", resp.StatusCode, data)
	}

	// /metrics exposes the routing counters in Prometheus text format.
	mresp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`dramrouter_requests_total{endpoint="/v2/predict",code="200"}`,
		"dramrouter_backends 2",
		"dramrouter_backends_healthy 2",
		"dramrouter_fingerprint_skew 0",
		"dramrouter_backend_up{backend=",
		"dramrouter_probes_total",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mdata)
		}
	}
}

// TestRouterRequestContract: the router enforces dramserve's request
// hygiene itself — bad requests are rejected before any backend is
// contacted (the lone backend here is a dead address).
func TestRouterRequestContract(t *testing.T) {
	rt, rts := newTestRouter(t, Options{
		Backends:      []string{"127.0.0.1:9"}, // nothing listens here
		ProbeInterval: -1,
	})
	_ = rt

	resp, err := http.Get(rts.URL + "/v2/predict")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /v2/predict = %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	resp, err = http.Post(rts.URL+"/v2/predict", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain POST = %d, want 415", resp.StatusCode)
	}

	for _, tc := range []struct {
		body, code string
		status     int
	}{
		{`{"workload":`, "malformed_body", http.StatusBadRequest},
		{`{"workload":"x","trefp":1,"temp_c":50} trailing`, "malformed_body", http.StatusBadRequest},
		{`{"bogus":1}`, "malformed_body", http.StatusBadRequest},
		{`{"queries":[]}`, "empty_batch", http.StatusBadRequest},
	} {
		resp, data := postPredict(t, rts.URL, tc.body)
		if we := decodeErr(t, data); resp.StatusCode != tc.status || we.Error.Code != tc.code {
			t.Fatalf("body %q = %d %s, want %d %s", tc.body, resp.StatusCode, data, tc.status, tc.code)
		}
	}

	big := `{"queries":[` + strings.Repeat(`{"workload":"x","trefp":1,"temp_c":5},`, httpapi.MaxBatch) +
		`{"workload":"x","trefp":1,"temp_c":5}]}`
	resp2, data := postPredict(t, rts.URL, big)
	if we := decodeErr(t, data); resp2.StatusCode != http.StatusBadRequest || we.Error.Code != "batch_too_large" {
		t.Fatalf("oversized batch = %d %s", resp2.StatusCode, data)
	}
}

// TestRouterProbeEjectionReadmission drives the pool-membership state
// machine with stub backends: FailAfter consecutive probe failures eject,
// the next good probe re-admits, and candidates() routes around the hole
// in between. Fingerprint skew between healthy stubs flips /healthz to 503.
func TestRouterProbeEjectionReadmission(t *testing.T) {
	type stub struct {
		ok atomic.Bool
		fp atomic.Value
	}
	mkStub := func(fp string) (*stub, *httptest.Server) {
		s := &stub{}
		s.ok.Store(true)
		s.fp.Store(fp)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				http.NotFound(w, r)
				return
			}
			if !s.ok.Load() {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			json.NewEncoder(w).Encode(serve.HealthResponse{
				Status: "ok", Generation: 1, Fingerprint: s.fp.Load().(string),
			})
		}))
		t.Cleanup(ts.Close)
		return s, ts
	}
	sA, tsA := mkStub("fp-1")
	sB, tsB := mkStub("fp-1")
	_ = sA
	rt, rts := newTestRouter(t, Options{
		Backends:      []string{tsA.URL, tsB.URL},
		ProbeInterval: -1,
		FailAfter:     2,
		Logf:          t.Logf,
	})

	rt.probeAll()
	if resp, hr := getHealth(t, rts.URL); resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Fingerprint != "fp-1" {
		t.Fatalf("initial healthz = %d %+v", resp.StatusCode, hr)
	}

	// One failed probe is a streak, not an ejection.
	sB.ok.Store(false)
	rt.probeAll()
	if _, hr := getHealth(t, rts.URL); hr.Healthy != 2 {
		t.Fatalf("ejected after a single failure: %+v", hr)
	}
	// The second consecutive failure crosses FailAfter.
	rt.probeAll()
	resp, hr := getHealth(t, rts.URL)
	if resp.StatusCode != http.StatusOK || hr.Status != "degraded" || hr.Healthy != 1 {
		t.Fatalf("post-ejection healthz = %d %+v", resp.StatusCode, hr)
	}
	if got := rt.metrics.ejections.Value(); got != 1 {
		t.Fatalf("ejections = %d, want 1", got)
	}
	// Every key now routes to the survivor first.
	for i := 0; i < 50; i++ {
		cands := rt.candidates(routingKey("wer", "KNN", i))
		if cands[0].addr != tsA.URL {
			t.Fatalf("key %d owned by ejected backend %s", i, cands[0].addr)
		}
	}

	// Recovery: one good probe re-admits.
	sB.ok.Store(true)
	rt.probeAll()
	if _, hr := getHealth(t, rts.URL); hr.Status != "ok" || hr.Healthy != 2 {
		t.Fatalf("post-recovery healthz: %+v", hr)
	}
	if got := rt.metrics.readmissions.Value(); got != 1 {
		t.Fatalf("readmissions = %d, want 1", got)
	}

	// Fingerprint skew between healthy backends: /healthz goes 503 "skew"
	// so an upstream load balancer stops sending traffic to this pool.
	sB.fp.Store("fp-2")
	rt.probeAll()
	resp, hr = getHealth(t, rts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable || hr.Status != "skew" || !hr.FingerprintSkew {
		t.Fatalf("skewed healthz = %d %+v", resp.StatusCode, hr)
	}
}

// TestRouterFailoverMidDrive is the acceptance test for node loss: a fleet
// drive is running flat out when one of two backends dies. Every issued
// query must still complete — in-flight and subsequent requests fail over
// to the survivor — and the dead backend must be ejected from the pool.
func TestRouterFailoverMidDrive(t *testing.T) {
	ds := testDataset(t)
	bA := newBackend(t, ds, "")
	bB := newBackend(t, ds, "")
	rt, rts := newTestRouter(t, Options{
		Backends:      []string{bA.ts.URL, bB.ts.URL},
		ProbeInterval: 40 * time.Millisecond,
		FailAfter:     2,
		HedgeAfter:    -1, // isolate retry-based failover from hedging
		Logf:          t.Logf,
	})

	f, err := fleet.New(fleet.Config{Servers: 6, Seed: 11, Workloads: []string{"backprop", "random"}})
	if err != nil {
		t.Fatal(err)
	}
	qs := f.Take(240)

	type driveOut struct {
		outs []fleet.Outcome
		err  error
	}
	done := make(chan driveOut, 1)
	go func() {
		outs, err := fleet.Drive(qs, fleet.DriveOptions{
			BaseURL: rts.URL, QPS: 400, Workers: 8,
			Targets: []core.Target{core.TargetWER, core.TargetPUE},
		})
		done <- driveOut{outs, err}
	}()

	// Kill backend A mid-drive, abruptly: open connections are severed,
	// not drained, so requests in flight on it fail at the transport level
	// and must be retried by the router to count as completed.
	time.Sleep(150 * time.Millisecond)
	bA.ts.CloseClientConnections()
	bA.ts.Close()

	d := <-done
	if d.err != nil {
		t.Fatal(d.err)
	}
	completed := 0
	for i, o := range d.outs {
		if o.Err != nil {
			t.Errorf("query %d lost: %v", i, o.Err)
			continue
		}
		completed++
	}
	if completed != len(qs) {
		t.Fatalf("completed %d of %d issued queries across the backend kill", completed, len(qs))
	}
	if got := rt.metrics.ejections.Value(); got < 1 {
		t.Fatalf("dead backend never ejected (ejections = %d)", got)
	}
	t.Logf("failover: %d/%d completed, retries=%d ejections=%d",
		completed, len(qs), rt.metrics.retries.Value(), rt.metrics.ejections.Value())
}

// TestRouterHedgingOnSlowShard: a shard that answers slowly (but is not
// down) costs one hedged duplicate, not a tail-latency spike. The owner of
// the test key is found via the router's own routing tables, made slow,
// and the hedge to the next candidate must win well under the stall.
func TestRouterHedgingOnSlowShard(t *testing.T) {
	ds := testDataset(t)
	bA := newBackend(t, ds, "")
	bB := newBackend(t, ds, "")
	rt, rts := newTestRouter(t, Options{
		Backends:      []string{bA.ts.URL, bB.ts.URL},
		ProbeInterval: -1,
		HedgeAfter:    25 * time.Millisecond,
		Logf:          t.Logf,
	})
	rt.probeAll()

	// Warm the model on both backends so the hedged attempt is a warm hit.
	const body = `{"workload":"backprop","trefp":2.283,"temp_c":50,"targets":["wer"]}`
	for _, b := range []*testBackend{bA, bB} {
		if resp, data := postPredict(t, b.ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup = %d: %s", resp.StatusCode, data)
		}
	}

	// Find which backend owns the key this query routes by, and stall it.
	var q serve.PredictRequestV2
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	gs := rt.groups(q)
	if len(gs) != 1 || len(gs[0].cands) != 2 {
		t.Fatalf("single-target query did not form one 2-candidate group: %+v", gs)
	}
	const stallMS = 2000
	owner := gs[0].cands[0].addr
	for _, b := range []*testBackend{bA, bB} {
		if b.ts.URL == owner {
			b.predictDelayMS.Store(stallMS)
		}
	}

	start := time.Now()
	resp, data := postPredict(t, rts.URL, body)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged predict = %d: %s", resp.StatusCode, data)
	}
	if elapsed >= stallMS*time.Millisecond {
		t.Fatalf("response took %v: the hedge never rescued it from the %dms stall", elapsed, stallMS)
	}
	if got := rt.metrics.hedges.Value(); got < 1 {
		t.Fatalf("hedges = %d, want at least 1", got)
	}
	t.Logf("hedged around a %dms stall in %v", stallMS, elapsed)
}

// TestRouterFingerprintSkewRejected: backends serving different artifacts
// must never have their answers blended into one response. A query (or
// batch) whose sub-answers span both backends is refused with a 502
// fingerprint_skew error rather than merged.
func TestRouterFingerprintSkewRejected(t *testing.T) {
	dsA := testDataset(t)
	dsB := perturbedDataset(t, dsA)
	bA := newBackend(t, dsA, "")
	bB := newBackend(t, dsB, "")
	rt, rts := newTestRouter(t, Options{
		Backends:      []string{bA.ts.URL, bB.ts.URL},
		ProbeInterval: -1,
		HedgeAfter:    -1, // a hedge re-homing a slow group could defeat the split
		Logf:          t.Logf,
	})
	rt.probeAll()

	if resp, hr := getHealth(t, rts.URL); resp.StatusCode != http.StatusServiceUnavailable ||
		hr.Status != "skew" || !hr.FingerprintSkew {
		t.Fatalf("skewed pool healthz = %d %+v, want 503 skew", resp.StatusCode, hr)
	}

	// Find a request whose sub-answers span both backends. Ownership
	// depends on the httptest ports hashed onto the ring, so scan the key
	// space: first for a single query whose two targets have different
	// owners (exercises the merge path), then for any two keys with
	// different owners to pair in a batch (exercises the cross-item path).
	mkQuery := func(kind string, set int, targets ...string) serve.PredictRequestV2 {
		return serve.PredictRequestV2{Workload: "backprop", TREFP: 2.283, TempC: 50,
			Model: kind, InputSet: set, Targets: targets}
	}
	var splitQ *serve.PredictRequestV2
	for _, kind := range []string{"KNN", "SVM"} {
		for set := 1; set <= 3 && splitQ == nil; set++ {
			q := mkQuery(kind, set, "wer", "pue")
			if len(rt.groups(q)) == 2 {
				splitQ = &q
			}
		}
	}
	if splitQ != nil {
		payload, _ := json.Marshal(splitQ)
		resp, data := postPredict(t, rts.URL, string(payload))
		if we := decodeErr(t, data); resp.StatusCode != http.StatusBadGateway ||
			we.Error.Code != codeFingerprintSkew {
			t.Fatalf("split query across skewed backends = %d %s, want 502 fingerprint_skew",
				resp.StatusCode, data)
		}
	} else {
		t.Log("no single query splits across owners on this ring; skipping the merge path")
	}

	// Batch path: two items owned by different backends.
	var pair []serve.PredictRequestV2
scan:
	for _, tgt := range []string{"wer", "pue"} {
		for _, kind := range []string{"KNN", "SVM", "RDF"} {
			for set := 1; set <= 3; set++ {
				q := mkQuery(kind, set, tgt)
				owner := rt.groups(q)[0].cands[0]
				if len(pair) == 0 {
					pair = append(pair, q)
					continue
				}
				if rt.groups(pair[0])[0].cands[0] != owner {
					pair = append(pair, q)
					break scan
				}
			}
		}
	}
	if len(pair) != 2 {
		t.Fatal("every model key landed on one backend; ring spread is broken")
	}
	payload, _ := json.Marshal(map[string]any{"queries": pair})
	resp, data := postPredict(t, rts.URL, string(payload))
	if we := decodeErr(t, data); resp.StatusCode != http.StatusBadGateway ||
		we.Error.Code != codeFingerprintSkew {
		t.Fatalf("skewed batch = %d %s, want 502 fingerprint_skew", resp.StatusCode, data)
	}
	if got := rt.metrics.skewRejects.Value(); got < 1 {
		t.Fatalf("skew rejections httpapi.Counter = %d, want at least 1", got)
	}
}

// TestRouterReloadUnderLoad: both backends hot-reload to a new artifact
// while a fleet drive runs through the router. Per-key routing means a
// single-target query is answered wholly by one backend, so the rollout
// window loses no requests; afterwards the pool converges on the new
// fingerprint.
func TestRouterReloadUnderLoad(t *testing.T) {
	dsA := testDataset(t)
	path := filepath.Join(t.TempDir(), "art.json.gz")
	if err := dsA.Save(path); err != nil {
		t.Fatal(err)
	}
	bA := newBackend(t, dsA, path)
	bB := newBackend(t, dsA, path)
	rt, rts := newTestRouter(t, Options{
		Backends:      []string{bA.ts.URL, bB.ts.URL},
		ProbeInterval: -1,
		Logf:          t.Logf,
	})
	rt.probeAll()
	_, fpBefore := bA.srv.Identity()

	f, err := fleet.New(fleet.Config{Servers: 6, Seed: 23, Workloads: []string{"backprop", "random"}})
	if err != nil {
		t.Fatal(err)
	}
	qs := f.Take(160)
	type driveOut struct {
		outs []fleet.Outcome
		err  error
	}
	done := make(chan driveOut, 1)
	go func() {
		outs, err := fleet.Drive(qs, fleet.DriveOptions{
			BaseURL: rts.URL, QPS: 400, Workers: 8,
			Targets: []core.Target{core.TargetWER},
		})
		done <- driveOut{outs, err}
	}()

	// Mid-drive, roll the new artifact onto both backends.
	time.Sleep(120 * time.Millisecond)
	if err := perturbedDataset(t, dsA).Save(path); err != nil {
		t.Fatal(err)
	}
	var reloadWG sync.WaitGroup
	for _, b := range []*testBackend{bA, bB} {
		reloadWG.Add(1)
		go func(b *testBackend) {
			defer reloadWG.Done()
			res, err := b.srv.Reload(path)
			if err != nil {
				t.Errorf("reload: %v", err)
				return
			}
			if !res.Swapped {
				t.Error("reload did not swap generations")
			}
		}(b)
	}
	reloadWG.Wait()

	d := <-done
	if d.err != nil {
		t.Fatal(d.err)
	}
	for i, o := range d.outs {
		if o.Err != nil {
			t.Errorf("query %d failed across the rollout: %v", i, o.Err)
		}
	}

	// The pool converges on the new artifact identity.
	rt.probeAll()
	_, fpAfter := bA.srv.Identity()
	if fpAfter == fpBefore {
		t.Fatal("reload did not change the artifact fingerprint")
	}
	resp, hr := getHealth(t, rts.URL)
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Fingerprint != fpAfter {
		t.Fatalf("post-rollout healthz = %d %+v, want ok on %s", resp.StatusCode, hr, fpAfter)
	}
}

// TestRouterOptionValidation pins New's input hygiene.
func TestRouterOptionValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("no backends accepted")
	}
	if _, err := New(Options{Backends: []string{"a", "a"}}); err == nil {
		t.Fatal("duplicate backends accepted")
	}
	if _, err := New(Options{Backends: []string{" "}}); err == nil {
		t.Fatal("blank backend accepted")
	}
	rt, err := New(Options{
		Backends:      []string{"10.0.0.1:8080", "http://10.0.0.2:8080/"},
		ProbeInterval: -1,
		Attempts:      10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.backends[0].addr != "http://10.0.0.1:8080" || rt.backends[1].addr != "http://10.0.0.2:8080" {
		t.Fatalf("normalized addrs: %s, %s", rt.backends[0].addr, rt.backends[1].addr)
	}
	if rt.attempts != 2 {
		t.Fatalf("attempts = %d, want capped at pool size 2", rt.attempts)
	}
}
