package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/ingest"
)

// The scraped surfaces — /metrics and /v2/stats — are contracts too:
// perfbench, scripts/smoke.sh and dramfleet read them by series name and
// JSON key. These fixtures pin both after a fixed request script: series
// names, label sets, line order and every counter value, and the stats
// keys, their order and counter values. Only timing values are masked:
// histogram _sum and bucket counts, latency_ms_* and uptime_seconds.
// Histogram _count lines stay pinned (they count calls, not time).
//
// Regenerate after an *intentional* change to a scraped surface:
//
//	go test ./internal/serve -run TestGoldenExposition -update-exposition

var updateExposition = flag.Bool("update-exposition", false, "regenerate the golden /metrics and /v2/stats fixtures")

var (
	metricsTimingRe = regexp.MustCompile(`(?m)^(\w+_bucket\{[^}]*\}|\w+_sum) \S+$`)
	statsTimingRe   = regexp.MustCompile(`"(latency_ms_\w+|uptime_seconds)":[0-9.eE+-]+`)
)

// maskMetrics replaces every histogram bucket count and sum with "<t>".
func maskMetrics(b []byte) []byte {
	return metricsTimingRe.ReplaceAll(b, []byte("$1 <t>"))
}

// maskStats replaces the timing values of a /v2/stats body and indents
// it, so a drift in the golden diff shows one key per line.
func maskStats(t *testing.T, b []byte) []byte {
	t.Helper()
	b = statsTimingRe.ReplaceAll(b, []byte(`"$1":"<t>"`))
	var out bytes.Buffer
	if err := json.Indent(&out, b, "", "  "); err != nil {
		t.Fatalf("stats body is not JSON: %v\n%s", err, b)
	}
	out.WriteByte('\n')
	return out.Bytes()
}

// checkExposition compares got against testdata/exposition/name.
func checkExposition(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "exposition", name)
	if *updateExposition {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-exposition to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted:\n got:\n%s\nwant:\n%s\n(regenerate with -update-exposition only for an intentional change)",
			name, got, want)
	}
}

// scrape pins /v2/stats then /metrics under the given fixture prefix. The
// stats scrape is itself counted, so it shows in the /metrics that
// follows.
func scrape(t *testing.T, ts *httptest.Server, prefix string) {
	t.Helper()
	resp, body := get(t, ts, "/v2/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v2/stats = %d: %s", resp.StatusCode, body)
	}
	checkExposition(t, prefix+"_stats.json", maskStats(t, body))
	resp, body = get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", resp.StatusCode, body)
	}
	checkExposition(t, prefix+"_metrics.txt", maskMetrics(body))
}

// exchange is one scripted request and the status it must answer.
type exchange struct {
	method, path, contentType, body string
	code                            int
}

func runScript(t *testing.T, ts *httptest.Server, script []exchange) {
	t.Helper()
	for _, x := range script {
		var resp *http.Response
		var body []byte
		if x.method == http.MethodGet {
			resp, body = get(t, ts, x.path)
		} else {
			resp, body = post(t, ts, x.path, x.contentType, x.body)
		}
		if resp.StatusCode != x.code {
			t.Fatalf("%s %s = %d, want %d: %s", x.method, x.path, resp.StatusCode, x.code, body)
		}
	}
}

// predictScript exercises every counter family of a plain server: cold and
// warm models across targets, kinds and input sets, a batch, a /v1 query,
// and the request contract's error statuses.
var predictScript = []exchange{
	{http.MethodGet, "/healthz", "", "", http.StatusOK},
	{http.MethodPost, "/v1/predict", "application/json", `{"workload":"backprop","trefp":1.173,"temp_c":60}`, http.StatusOK},
	{http.MethodPost, "/v1/predict", "application/json", `{"workload":"backprop","trefp":2.283,"temp_c":50}`, http.StatusOK},
	{http.MethodPost, "/v2/predict", "application/json", `{"workload":"nw","trefp":2.283,"temp_c":60,"targets":["wer","pue"]}`, http.StatusOK},
	{http.MethodPost, "/v2/predict", "application/json", `{"workload":"memcached","trefp":1.173,"temp_c":70,"model":"RDF","input_set":2,"targets":["wer"]}`, http.StatusOK},
	{http.MethodPost, "/v2/predict", "application/json", `{"queries":[{"workload":"random","trefp":0.618,"temp_c":50,"targets":["pue"]},{"workload":"nw","trefp":1.727,"temp_c":60,"targets":["pue"]}]}`, http.StatusOK},
	{http.MethodPost, "/v2/predict", "application/json", `{"workload":"doom","trefp":1,"temp_c":60}`, http.StatusNotFound},
	{http.MethodGet, "/v2/predict", "", "", http.StatusMethodNotAllowed},
	{http.MethodPost, "/v2/predict", "text/plain", "hi", http.StatusUnsupportedMediaType},
	{http.MethodPost, "/v1/reload", "application/json", "", http.StatusBadRequest},
}

// TestGoldenExposition pins /metrics and /v2/stats of a plain server and
// of an ingest-enabled one before and after a retrain.
//
// The ingest scrapes wait until every accepted row is buffered: queue
// depth and buffered rows are otherwise a race with the consumer.
func TestGoldenExposition(t *testing.T) {
	t.Run("serve", func(t *testing.T) {
		_, ts := newTestServer(t)
		runScript(t, ts, predictScript)
		scrape(t, ts, "serve")
	})
	t.Run("ingest", func(t *testing.T) {
		s, ts := newIngestServer(t, ingest.Config{Capacity: 64}, filepath.Join(t.TempDir(), "dfault.json.gz"))
		runScript(t, ts, predictScript[1:3])
		runScript(t, ts, []exchange{
			{http.MethodPost, "/v2/ingest", "application/json", ueRowsJSON(6), http.StatusOK},
			{http.MethodPost, "/v2/ingest", "application/json",
				`{"rows":[{"workload":"nw","trefp":1.727,"temp_c":60,"wer":0.001,"pue":0.5}]}`, http.StatusOK},
			{http.MethodPost, "/v2/ingest", "application/json", `{"rows":[]}`, http.StatusBadRequest},
		})
		waitFor(t, "rows buffered", func() bool {
			st := s.ingest.Snapshot()
			return st.Buffered == 7 && st.QueueDepth == 0
		})
		scrape(t, ts, "ingest_buffered")
		runScript(t, ts, []exchange{
			{http.MethodPost, "/v2/retrain", "application/json", "", http.StatusOK},
			{http.MethodPost, "/v1/predict", "application/json", `{"workload":"backprop","trefp":1.173,"temp_c":60}`, http.StatusOK},
		})
		// Rows after the retrain drift against the baseline it adopted.
		runScript(t, ts, []exchange{
			{http.MethodPost, "/v2/ingest", "application/json", `{"rows":[` +
				`{"server":"server09","trefp":0.6,"temp_c":85,"ce":[{"t":0.1,"row":7,"col":2,"bank":1,"bits":2}],"ue":1},` +
				`{"server":"server09","trefp":0.6,"temp_c":80,"ue":1},` +
				`{"server":"server10","trefp":0.7,"temp_c":85,"ue":0}]}`, http.StatusOK},
		})
		waitFor(t, "rows buffered", func() bool {
			st := s.ingest.Snapshot()
			return st.Buffered == 3 && st.QueueDepth == 0
		})
		scrape(t, ts, "ingest_retrained")
	})
}
