package serve

import (
	"encoding/json"
	"fmt"
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
	"repro/internal/httpapi"
	"repro/internal/workload"
)

// perturbedDataset deep-copies the corpus and nudges one above-floor WER
// row, so the result trains a different model and hashes to a different
// fingerprint while keeping the same workloads servable.
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

func postReload(t testing.TB, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", rd)
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

// TestHotReloadE2E is the acceptance test of the reload subsystem: under 32
// concurrent query goroutines, reloading a changed artifact swaps
// generations with zero failed or blocked requests, /metrics shows the
// generation bump, and reloading an identical artifact is a fingerprint
// no-op.
func TestHotReloadE2E(t *testing.T) {
	ds := testDataset(t)
	path := filepath.Join(t.TempDir(), "art.json.gz")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	s := New(ds, Options{Quick: true, Seed: 3, Workers: 2, ArtifactPath: path})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Warm the first generation so the hammer goroutines mostly exercise
	// the swap, not cold training.
	if resp, data := postPredict(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup = %d: %s", resp.StatusCode, data)
	}

	// 32 goroutines hammer /v1/predict for the whole reload sequence.
	const goroutines = 32
	bodies := []string{
		`{"workload":"nw","trefp":1.173,"temp_c":60}`,
		`{"workload":"backprop","trefp":2.283,"temp_c":50}`,
		`{"workload":"srad(par)","trefp":0.618,"temp_c":70}`,
		`{"workload":"memcached","trefp":1.727,"temp_c":60}`,
	}
	var (
		stopHammer = make(chan struct{})
		hammerWG   sync.WaitGroup
		requests   atomic.Int64
		failures   atomic.Int64
		firstFail  atomic.Value
	)
	for g := 0; g < goroutines; g++ {
		hammerWG.Add(1)
		go func(g int) {
			defer hammerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopHammer:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
					strings.NewReader(bodies[(g+i)%len(bodies)]))
				if err == nil {
					data, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr != nil {
						err = rerr
					} else if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d: %s", resp.StatusCode, data)
					}
				}
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					firstFail.CompareAndSwap(nil, err)
				}
			}
		}(g)
	}

	decodeReload := func(data []byte) ReloadResult {
		var r ReloadResult
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("reload body %s: %v", data, err)
		}
		return r
	}

	// 1. Reloading the identical artifact is a fingerprint no-op.
	gen1 := s.gen.Load()
	resp, data := postReload(t, ts, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("noop reload = %d: %s", resp.StatusCode, data)
	}
	if r := decodeReload(data); r.Swapped || r.Generation != 1 {
		t.Fatalf("identical artifact swapped: %+v", r)
	}
	if s.gen.Load() != gen1 {
		t.Fatal("no-op reload replaced the generation")
	}

	// 2. Overwrite the artifact with changed rows and reload: the
	// generation must bump while the hammer sees zero failures.
	changed := perturbedDataset(t, ds)
	if err := changed.Save(path); err != nil {
		t.Fatal(err)
	}
	resp, data = postReload(t, ts, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap reload = %d: %s", resp.StatusCode, data)
	}
	if r := decodeReload(data); !r.Swapped || r.Generation != 2 {
		t.Fatalf("changed artifact did not swap: %+v", r)
	}
	if s.gen.Load() == gen1 {
		t.Fatal("swapping reload kept the old generation current")
	}

	// 3. Reloading the now-identical new artifact is again a no-op.
	resp, data = postReload(t, ts, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second noop reload = %d: %s", resp.StatusCode, data)
	}
	if r := decodeReload(data); r.Swapped || r.Generation != 2 {
		t.Fatalf("identical new artifact swapped: %+v", r)
	}

	// Let the hammer overlap the post-swap generation for a moment, then
	// stop it and audit: zero failed (or hung — hammerWG would block)
	// requests across the whole sequence.
	time.Sleep(50 * time.Millisecond)
	close(stopHammer)
	hammerWG.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d/%d hammer requests failed during reload; first: %v",
			n, requests.Load(), firstFail.Load())
	}
	if requests.Load() == 0 {
		t.Fatal("hammer made no requests")
	}

	// The new generation serves the new rows: a served prediction must
	// equal a model trained directly on the changed dataset.
	resp, data = postPredict(t, ts, `{"workload":"srad(par)","trefp":2.283,"temp_c":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap predict = %d: %s", resp.StatusCode, data)
	}
	var got PredictResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	spec, err := workload.FindSpec("srad(par)")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := s.profileFor(s.gen.Load(), spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Train(changed, core.TargetWER, core.ModelKNN, core.InputSet1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Predict(core.Query{
		Features: prof.Features, TREFP: 2.283, VDD: got.VDD, TempC: 60,
		Rank: core.RankDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range got.WERByRank {
		if got.WERByRank[r] != want.ByRank[r] {
			t.Fatalf("rank %d: served %v != model trained on reloaded rows %v", r, got.WERByRank[r], want.ByRank[r])
		}
	}

	// /metrics and /healthz surface the reload observability.
	m := scrapeMetrics(t, ts)
	if m["dramserve_generation"] != 2 {
		t.Fatalf("dramserve_generation = %v, want 2", m["dramserve_generation"])
	}
	if m["dramserve_reloads_total"] != 1 {
		t.Fatalf("dramserve_reloads_total = %v, want 1", m["dramserve_reloads_total"])
	}
	if m["dramserve_reload_noops_total"] != 2 {
		t.Fatalf("dramserve_reload_noops_total = %v, want 2", m["dramserve_reload_noops_total"])
	}
	if m["dramserve_reload_seconds_count"] != 1 {
		t.Fatalf("dramserve_reload_seconds_count = %v, want 1", m["dramserve_reload_seconds_count"])
	}
	_, hz := get(t, ts, "/healthz")
	var health struct {
		Generation  int64  `json:"generation"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(hz, &health); err != nil {
		t.Fatal(err)
	}
	if health.Generation != 2 || health.Fingerprint != changed.Fingerprint() {
		t.Fatalf("healthz generation/fingerprint: %s", hz)
	}
}

func TestReloadErrors(t *testing.T) {
	ds := testDataset(t)
	// No artifact path configured anywhere: 400.
	s := New(ds, Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if resp, data := postReload(t, ts, ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pathless reload = %d: %s", resp.StatusCode, data)
	}
	// GET is not allowed.
	if resp, _ := get(t, ts, "/v1/reload"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/reload = %d", resp.StatusCode)
	}
	// A bad body is rejected.
	if resp, _ := postReload(t, ts, `{"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad reload body accepted")
	}
	// An oversized body hits the uniform cap: 413, like every endpoint.
	if resp, _ := postReload(t, ts, strings.Repeat(" ", httpapi.MaxBodyBytes+1)+"{}"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized reload body not 413")
	}
	// The endpoint must not let a client name an arbitrary server-side
	// file (filesystem probing / model substitution).
	if resp, _ := postReload(t, ts, `{"path":"/etc/passwd"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("client-supplied reload path accepted")
	}
	// A missing artifact fails the reload, keeps the generation, and is
	// counted.
	missing := filepath.Join(t.TempDir(), "missing.json.gz")
	if _, err := s.Reload(missing); err == nil {
		t.Fatal("missing artifact reloaded")
	}
	if got := s.gen.Load().id; got != 1 {
		t.Fatalf("failed reload bumped generation to %d", got)
	}
	m := scrapeMetrics(t, ts)
	if m["dramserve_reload_errors_total"] != 1 {
		t.Fatalf("dramserve_reload_errors_total = %v", m["dramserve_reload_errors_total"])
	}
	// A predict still works on the intact generation.
	if resp, data := postPredict(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after failed reload = %d: %s", resp.StatusCode, data)
	}
	// Closed server: 503.
	s.Close()
	if _, err := s.Reload(missing); err != errClosed {
		t.Fatalf("Reload after close = %v, want errClosed", err)
	}
}

// TestReloadConcurrentWithQueriesUnderChurn swaps generations repeatedly
// while queries are in flight; under -race this is the stress test of the
// generation pointer swap.
func TestReloadConcurrentWithQueriesUnderChurn(t *testing.T) {
	ds := testDataset(t)
	pathA := filepath.Join(t.TempDir(), "a.json.gz")
	pathB := filepath.Join(t.TempDir(), "b.json.gz")
	if err := ds.Save(pathA); err != nil {
		t.Fatal(err)
	}
	if err := perturbedDataset(t, ds).Save(pathB); err != nil {
		t.Fatal(err)
	}
	s := New(ds, Options{Quick: true, Seed: 3, Workers: 2, ArtifactPath: pathA})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		failures atomic.Int64
		firstErr atomic.Value
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := `{"workload":"nw","trefp":1.173,"temp_c":60}`
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
				if err == nil {
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %d: %s", resp.StatusCode, data)
					}
				}
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}(g)
	}
	// Ping-pong between the two artifacts: every reload is a real swap.
	paths := []string{pathB, pathA, pathB, pathA, pathB, pathA}
	for i, p := range paths {
		if _, err := s.Reload(p); err != nil {
			t.Fatalf("reload %d (%s): %v", i, p, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during generation churn; first: %v", n, firstErr.Load())
	}
	if got := s.gen.Load().id; got != int64(1+len(paths)) {
		t.Fatalf("generation = %d after %d swaps", got, len(paths))
	}
	m := scrapeMetrics(t, ts)
	if m["dramserve_reloads_total"] != float64(len(paths)) {
		t.Fatalf("reloads_total = %v, want %d", m["dramserve_reloads_total"], len(paths))
	}
}

// TestReloadAdoptsArtifactBuildSettings covers the generation's size/seed
// derivation: an artifact that records its build settings wins over the
// server's startup options (a retrained artifact may have been rebuilt
// with a different seed or at full profiling size).
func TestReloadAdoptsArtifactBuildSettings(t *testing.T) {
	ds := testDataset(t)
	s := New(ds, Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	if g := s.gen.Load(); g.size != workload.SizeTest || g.seed != 3 {
		t.Fatalf("startup generation (size=%v seed=%d) ignored options", g.size, g.seed)
	}

	quick := perturbedDataset(t, ds)
	quick.StampBuild(workload.SizeTest, 99)
	pathQuick := filepath.Join(t.TempDir(), "quick.json.gz")
	if err := quick.Save(pathQuick); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Reload(pathQuick); err != nil || !res.Swapped {
		t.Fatalf("reload: %+v, %v", res, err)
	}
	if g := s.gen.Load(); g.size != workload.SizeTest || g.seed != 99 {
		t.Fatalf("generation (size=%v seed=%d) did not adopt artifact build settings", g.size, g.seed)
	}

	full := perturbedDataset(t, quick)
	full.StampBuild(workload.SizeProfile, 7)
	pathFull := filepath.Join(t.TempDir(), "full.json.gz")
	if err := full.Save(pathFull); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Reload(pathFull); err != nil || !res.Swapped {
		t.Fatalf("reload: %+v, %v", res, err)
	}
	if g := s.gen.Load(); g.size != workload.SizeProfile || g.seed != 7 {
		t.Fatalf("generation (size=%v seed=%d) did not adopt full-size build settings", g.size, g.seed)
	}
}

// TestReloadDoesNotWaitOnInflightRequest pins the swap contract: a request
// holds its generation for its whole duration, and a reload never waits for
// it. The request is parked inside a cold model fit; Reload must return
// while the fit is still blocked, and the parked request must then answer
// from the generation it started on.
func TestReloadDoesNotWaitOnInflightRequest(t *testing.T) {
	ds := testDataset(t)
	path := filepath.Join(t.TempDir(), "b.json.gz")
	changed := perturbedDataset(t, ds)
	if err := changed.Save(path); err != nil {
		t.Fatal(err)
	}
	s := New(ds, Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	entered := make(chan struct{})
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	var calls atomic.Int64
	realTrain := s.train
	s.train = func(ds *core.Dataset, target core.Target, kind core.ModelKind, set core.InputSet, workers int) (core.Predictor, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-gate
		}
		return realTrain(ds, target, kind, set, workers)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(release) // runs before ts.Close, which waits on parked requests

	const body = `{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["pue"]}`
	type answer struct {
		code int
		data []byte
		err  error
	}
	pinned := make(chan answer, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v2/predict", "application/json", strings.NewReader(body))
		if err != nil {
			pinned <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		pinned <- answer{resp.StatusCode, data, err}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the model fit")
	}

	reloaded := make(chan *ReloadResult, 1)
	go func() {
		res, err := s.Reload(path)
		if err != nil {
			t.Errorf("reload: %v", err)
		}
		reloaded <- res
	}()
	select {
	case res := <-reloaded:
		if res == nil || !res.Swapped || res.Generation != 2 || res.Fingerprint != changed.Fingerprint() {
			t.Fatalf("reload under an in-flight fill: %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Reload waited on an in-flight request")
	}

	release()
	got := <-pinned
	if got.err != nil || got.code != http.StatusOK {
		t.Fatalf("pinned request = %d %v: %s", got.code, got.err, got.data)
	}
	var out PredictResponseV2
	if err := json.Unmarshal(got.data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Generation != 1 || out.Fingerprint != ds.Fingerprint() {
		t.Fatalf("pinned request answered from generation %d (%s), want 1 (%s)",
			out.Generation, out.Fingerprint, ds.Fingerprint())
	}
	// Requests after the swap see the new artifact.
	resp, data := postPredictV2(t, ts, body)
	if err := json.Unmarshal(data, &out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap predict = %d: %s", resp.StatusCode, data)
	}
	if out.Generation != 2 || out.Fingerprint != changed.Fingerprint() {
		t.Fatalf("post-swap request answered from generation %d (%s)", out.Generation, out.Fingerprint)
	}
}
