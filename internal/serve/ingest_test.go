package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/workload"
)

// newIngestServer stands up an ingest-enabled Server over the shared test
// corpus. artifactPath "" skips persistence.
func newIngestServer(t testing.TB, cfg ingest.Config, artifactPath string) (*Server, *httptest.Server) {
	t.Helper()
	ds := testDataset(t)
	if artifactPath != "" {
		if err := ds.SaveAtomic(artifactPath); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadDataset(artifactPath)
		if err != nil {
			t.Fatal(err)
		}
		ds = loaded
	}
	s := New(ds, Options{Quick: true, Seed: 3, Workers: 2, ArtifactPath: artifactPath, Ingest: &cfg})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// ueRowJSON renders one valid UE-labeled telemetry row.
func ueRowJSON(i int) string {
	return fmt.Sprintf(
		`{"server":"server%02d","trefp":%g,"temp_c":%d,"ce":[{"t":0.1,"row":%d,"col":2,"bank":1,"bits":1}],"ue":%d}`,
		i%4, 1.8+float64(i%3)*0.4, 55+i%10, i%128, i%2)
}

func ueRowsJSON(n int) string {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = ueRowJSON(i)
	}
	return `{"rows":[` + strings.Join(rows, ",") + `]}`
}

// errV2 decodes the structured /v2 error envelope.
func errV2(t testing.TB, body []byte) (code, field, msg string) {
	t.Helper()
	var out struct {
		Error struct {
			Code    string `json:"code"`
			Field   string `json:"field"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("not a /v2 error envelope: %v (%s)", err, body)
	}
	return out.Error.Code, out.Error.Field, out.Error.Message
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestIngestDisabled(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v2/ingest", "/v2/retrain"} {
		resp, body := post(t, ts, path, "application/json", `{}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s on a non-ingest server = %d, want 400", path, resp.StatusCode)
		}
		if code, _, _ := errV2(t, body); code != codeIngestDisabled {
			t.Fatalf("%s code %q, want %q", path, code, codeIngestDisabled)
		}
	}
}

// TestEmptyBodyEndpointsRejectTrailingData: /v1/reload and /v2/retrain
// take an empty body or one empty object, under the same strict decode as
// every other body — a second document is 400 malformed_body, reported
// before the endpoint's own preconditions.
func TestEmptyBodyEndpointsRejectTrailingData(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts, "/v2/retrain", "application/json", `{} {}`)
	if code, _, _ := errV2(t, body); resp.StatusCode != http.StatusBadRequest || code != httpapi.CodeMalformedBody {
		t.Fatalf("/v2/retrain {} {} = %d %q, want 400 %q", resp.StatusCode, code, httpapi.CodeMalformedBody)
	}
	resp, body = postReload(t, ts, `{} {}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trailing data") {
		t.Fatalf("/v1/reload {} {} = %d: %s, want 400 trailing data", resp.StatusCode, body)
	}
}

func TestIngestValidation(t *testing.T) {
	_, ts := newIngestServer(t, ingest.Config{Capacity: 64}, "")
	cases := []struct {
		name   string
		body   string
		status int
		code   string
		field  string
	}{
		{"empty batch", `{"rows":[]}`, 400, httpapi.CodeEmptyBatch, "rows"},
		{"missing rows", `{}`, 400, httpapi.CodeEmptyBatch, "rows"},
		{"unknown field", `{"rows":[],"nope":1}`, 400, httpapi.CodeMalformedBody, ""},
		{"bad trefp", `{"rows":[{"trefp":0,"temp_c":60,"ue":1,"server":"s0"}]}`,
			400, codeOutOfRange, "trefp"},
		{"unordered ce", `{"rows":[{"trefp":1.8,"temp_c":60,"ue":0,"server":"s0","ce":[{"t":2},{"t":1}]}]}`,
			400, codeBadTelemetry, "ce"},
		{"no label", `{"rows":[{"trefp":1.8,"temp_c":60}]}`, 400, codeOutOfRange, ""},
		{"ue without server", `{"rows":[{"trefp":1.8,"temp_c":60,"ue":1}]}`,
			400, codeOutOfRange, "server"},
		{"wer without workload", `{"rows":[{"trefp":1.8,"temp_c":60,"wer":1e-9}]}`,
			400, codeOutOfRange, "workload"},
		{"unknown workload", `{"rows":[{"trefp":1.8,"temp_c":60,"workload":"nope","wer":1e-9}]}`,
			404, codeUnknownWorkload, "workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, "/v2/ingest", "application/json", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			code, field, msg := errV2(t, body)
			if code != tc.code || field != tc.field {
				t.Fatalf("error (%s, %s), want (%s, %s): %s", code, field, tc.code, tc.field, msg)
			}
			// Per-row failures must locate the row.
			if strings.HasPrefix(tc.body, `{"rows":[{`) && !strings.Contains(msg, "row 0") {
				t.Fatalf("message %q does not locate the failing row", msg)
			}
		})
	}
	// Oversized batch: one past the shared cap.
	big := make([]string, httpapi.MaxBatch+1)
	for i := range big {
		big[i] = `{"trefp":1.8,"temp_c":60,"ue":1,"server":"s0"}`
	}
	resp, body := post(t, ts, "/v2/ingest", "application/json",
		`{"rows":[`+strings.Join(big, ",")+`]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch = %d, want 400", resp.StatusCode)
	}
	if code, _, _ := errV2(t, body); code != httpapi.CodeBatchTooLarge {
		t.Fatalf("oversized batch code %q, want %q", code, httpapi.CodeBatchTooLarge)
	}
}

// gateProfiles replaces the server's profile-build seam with one that
// signals and then blocks until released — the deterministic way to hold
// a retrain (and therefore the pipeline consumer) mid-flight.
func gateProfiles(s *Server) (started <-chan struct{}, release func()) {
	ch := make(chan struct{}, 64)
	gate := make(chan struct{})
	var once sync.Once
	orig := s.buildProfile
	s.buildProfile = func(spec workload.Spec, size workload.Size, seed uint64) (*profile.Result, error) {
		ch <- struct{}{}
		<-gate
		return orig(spec, size, seed)
	}
	return ch, func() { once.Do(func() { close(gate) }) }
}

func TestIngestBackpressure(t *testing.T) {
	s, ts := newIngestServer(t, ingest.Config{Capacity: 4, RetrainRows: 1}, "")
	started, release := gateProfiles(s)
	defer release()

	// One WER-labeled row trips the row trigger; the retrain parks on the
	// gated profile build with the consumer inside it.
	resp, body := post(t, ts, "/v2/ingest", "application/json",
		`{"rows":[{"trefp":1.8,"temp_c":60,"workload":"nw","wer":1e-9}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed row = %d: %s", resp.StatusCode, body)
	}
	<-started

	// The queue keeps absorbing up to capacity while the consumer is
	// parked; the overflow answers 429 with the accepted prefix.
	resp, body = post(t, ts, "/v2/ingest", "application/json", ueRowsJSON(5))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow = %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("429 without Retry-After")
	}
	code, field, msg := errV2(t, body)
	if code != codeQueueFull || field != "rows" {
		t.Fatalf("overflow error (%s, %s): %s", code, field, msg)
	}
	if !strings.Contains(msg, "accepted 4 of 5") {
		t.Fatalf("overflow message %q does not report the accepted prefix", msg)
	}
	st := s.ingest.Snapshot()
	if st.Accepted != 5 || st.Dropped != 1 {
		t.Fatalf("accepted %d dropped %d, want 5/1", st.Accepted, st.Dropped)
	}

	release()
	// The retrain completes and swaps; the queued telemetry rows drain.
	waitFor(t, "retrain swap", func() bool {
		gen, _ := s.Identity()
		return gen >= 2 && s.ingest.Snapshot().QueueDepth == 0
	})
}

func TestRetrainInProgress(t *testing.T) {
	s, ts := newIngestServer(t, ingest.Config{Capacity: 16}, "")
	started, release := gateProfiles(s)
	defer release()

	resp, body := post(t, ts, "/v2/ingest", "application/json",
		`{"rows":[{"trefp":1.8,"temp_c":60,"workload":"nw","wer":1e-9}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed row = %d: %s", resp.StatusCode, body)
	}
	waitFor(t, "row buffered", func() bool { return s.ingest.Snapshot().Buffered == 1 })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Raw client call: test helpers may not Fatal off the test goroutine.
		resp, err := http.Post(ts.URL+"/v2/retrain", "application/json", strings.NewReader(""))
		if err != nil {
			t.Errorf("first retrain: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first retrain = %d", resp.StatusCode)
		}
	}()
	<-started // the manual retrain is parked inside the profile build

	resp, body = post(t, ts, "/v2/retrain", "application/json", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("concurrent retrain = %d, want 409: %s", resp.StatusCode, body)
	}
	if code, _, _ := errV2(t, body); code != codeRetrainInProgress {
		t.Fatalf("concurrent retrain code %q, want %q", code, codeRetrainInProgress)
	}
	release()
	wg.Wait()
}

func TestManualRetrainPersistsAndPublishes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dfault.json.gz")
	s, ts := newIngestServer(t, ingest.Config{Capacity: 64}, path)
	_, fp0 := s.Identity()

	resp, body := post(t, ts, "/v2/ingest", "application/json", ueRowsJSON(6))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponseV2
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 6 {
		t.Fatalf("accepted %d, want 6", ir.Accepted)
	}
	waitFor(t, "rows buffered", func() bool { return s.ingest.Snapshot().Buffered == 6 })

	resp, body = post(t, ts, "/v2/retrain", "application/json", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrain = %d: %s", resp.StatusCode, body)
	}
	var rr RetrainResponseV2
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Swapped || rr.Generation != 2 || rr.RowsFolded != 6 {
		t.Fatalf("retrain response %+v, want swapped generation 2 with 6 rows", rr)
	}
	if rr.Fingerprint == fp0 {
		t.Fatal("retrain kept the old fingerprint")
	}

	// The published artifact is on disk under the new fingerprint (written
	// before the swap: the serving identity always exists on disk).
	peeked, err := core.PeekFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	if peeked != rr.Fingerprint {
		t.Fatalf("artifact fingerprint %q, serving %q", peeked, rr.Fingerprint)
	}
	// The persisted artifact carries the appended telemetry rows.
	reloaded, err := core.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded.UER) != len(testDataset(t).UER)+6 {
		t.Fatalf("persisted artifact has %d UE rows", len(reloaded.UER))
	}

	// The ingest surfaces: /v2/stats section and /metrics counters.
	resp, body = get(t, ts, "/v2/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v2/stats = %d", resp.StatusCode)
	}
	var stats StatsResponseV2
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingest == nil {
		t.Fatal("/v2/stats has no ingest section on an ingest-enabled server")
	}
	if stats.Ingest.Accepted != 6 || stats.Ingest.Retrains != 1 || stats.Ingest.Buffered != 0 {
		t.Fatalf("ingest stats %+v", stats.Ingest)
	}
	_, body = get(t, ts, "/metrics")
	for _, want := range []string{
		"dramserve_ingest_accepted_total 6",
		"dramserve_ingest_dropped_total 0",
		"dramserve_ingest_queue_depth 0",
		"dramserve_retrain_total 1",
		"dramserve_retrain_failures_total 0",
		"dramserve_retrain_seconds_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A retrain with nothing buffered republishes an identical dataset:
	// the fingerprint no-op keeps the generation.
	resp, body = post(t, ts, "/v2/retrain", "application/json", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle retrain = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Swapped || rr.Generation != 2 || rr.RowsFolded != 0 {
		t.Fatalf("idle retrain %+v, want unswapped generation 2", rr)
	}

	// A non-ingest /v2/stats run has no ingest section (wire shape is
	// additive).
	_, ts2 := newTestServer(t)
	_, body = get(t, ts2, "/v2/stats")
	if strings.Contains(string(body), `"ingest"`) {
		t.Fatal("non-ingest /v2/stats carries an ingest section")
	}
}

// TestIngestRetrainUnderLoad is the closed-loop e2e: predicts hammer the
// server while ingested rows trip the row-count trigger and a retrain
// publishes a new fingerprinted generation mid-traffic. Run with -race
// this proves the publication seam drops or blocks no in-flight query.
func TestIngestRetrainUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dfault.json.gz")
	s, ts := newIngestServer(t, ingest.Config{Capacity: 4096, RetrainRows: 48}, path)
	_, fp0 := s.Identity()

	// Warm the predict path so the load loop measures serving, not the
	// one-time profile build and model fit.
	predictBody := `{"workload":"nw","trefp":1.8,"temp_c":60,"targets":["wer","pue"]}`
	resp, body := post(t, ts, "/v2/predict", "application/json", predictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup predict = %d: %s", resp.StatusCode, body)
	}

	var (
		stopLoad  = make(chan struct{})
		predicts  atomic.Int64
		failures  atomic.Int64
		fpSwitch  atomic.Bool
		loadWG    sync.WaitGroup
		numLoader = 4
	)
	for w := 0; w < numLoader; w++ {
		loadWG.Add(1)
		go func() {
			defer loadWG.Done()
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v2/predict", "application/json",
					strings.NewReader(predictBody))
				if err != nil {
					failures.Add(1)
					continue
				}
				var out PredictResponseV2
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					failures.Add(1)
					continue
				}
				if out.Fingerprint != fp0 {
					fpSwitch.Store(true)
				}
				predicts.Add(1)
			}
		}()
	}

	// Feed telemetry until the row trigger fires and the swap lands.
	for i := 0; i < 8; i++ {
		resp, body := post(t, ts, "/v2/ingest", "application/json", ueRowsJSON(12))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest burst %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	waitFor(t, "ingest-triggered retrain", func() bool {
		gen, fp := s.Identity()
		return gen >= 2 && fp != fp0
	})
	// Keep predicting across the post-swap window, then stop.
	base := predicts.Load()
	waitFor(t, "post-swap predicts", func() bool { return predicts.Load() > base+50 })
	close(stopLoad)
	loadWG.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d predicts failed across the retrain (want 0 dropped/blocked)", n)
	}
	if predicts.Load() == 0 {
		t.Fatal("no predicts completed")
	}
	if !fpSwitch.Load() {
		t.Fatal("no predict observed the new fingerprint after the swap")
	}
	gen, fp := s.Identity()
	if gen < 2 || fp == fp0 {
		t.Fatalf("serving identity (%d, %s) did not advance", gen, fp)
	}
	// A second row-count retrain may still be mid-flight (disk written,
	// swap pending); wait for disk and serving identity to agree.
	waitFor(t, "artifact matches serving identity", func() bool {
		_, serving := s.Identity()
		peeked, err := core.PeekFingerprint(path)
		return err == nil && peeked == serving
	})
	if st := s.ingest.Snapshot(); st.Retrains == 0 {
		t.Fatalf("pipeline counted %d retrains", st.Retrains)
	}
}
