package cluster

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The router's /metrics is scraped by perfbench and scripts/smoke.sh by
// series name; this fixture pins it after a fixed request script: series
// names, label sets, line order and every value. The router exports no
// timing series, so nothing is masked.
//
// Regenerate after an *intentional* change to the exposition:
//
//	go test ./internal/cluster -run TestGoldenExposition -update-exposition

var updateExposition = flag.Bool("update-exposition", false, "regenerate the golden router /metrics fixture")

// TestGoldenExposition drives a router over two backends. The backends are
// known by fixed names that the router's transport dials at their
// listeners, so the backend labels and the ring placement do not depend on
// the ports the listeners drew. Probing and hedging are off (one probe
// round runs by hand): both would make the counters depend on timing.
func TestGoldenExposition(t *testing.T) {
	ds := testDataset(t)
	names := []string{"http://backend0.test", "http://backend1.test"}
	ports := map[string]string{}
	for _, name := range names {
		b := newBackend(t, ds, "")
		ports[strings.TrimPrefix(name, "http://")+":80"] = strings.TrimPrefix(b.ts.URL, "http://")
	}
	var dialer net.Dialer
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := ports[addr]
			if !ok {
				return nil, fmt.Errorf("dialed unknown backend %s", addr)
			}
			return dialer.DialContext(ctx, network, real)
		},
	}}
	t.Cleanup(client.CloseIdleConnections)
	rt, rts := newTestRouter(t, Options{
		Backends: names, Client: client, ProbeInterval: -1, HedgeAfter: -1,
	})
	rt.probeAll()

	for _, x := range []struct {
		method, contentType, body string
		code                      int
	}{
		{http.MethodPost, "application/json", `{"workload":"backprop","trefp":1.173,"temp_c":60}`, http.StatusOK},
		{http.MethodPost, "application/json", `{"workload":"random","trefp":2.283,"temp_c":50,"targets":["wer","pue"]}`, http.StatusOK},
		{http.MethodPost, "application/json", `{"queries":[{"workload":"backprop","trefp":0.618,"temp_c":50,"model":"RDF"},{"workload":"random","trefp":1.727,"temp_c":60,"targets":["pue"]}]}`, http.StatusOK},
		{http.MethodPost, "application/json", `{"workload":"doom","trefp":1,"temp_c":60}`, http.StatusNotFound},
		{http.MethodPost, "text/plain", "hi", http.StatusUnsupportedMediaType},
		{http.MethodGet, "", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(x.method, rts.URL+"/v2/predict", strings.NewReader(x.body))
		if err != nil {
			t.Fatal(err)
		}
		if x.contentType != "" {
			req.Header.Set("Content-Type", x.contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != x.code {
			t.Fatalf("%s /v2/predict %s = %d, want %d: %s", x.method, x.body, resp.StatusCode, x.code, data)
		}
	}
	if resp, _ := getHealth(t, rts.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	path := filepath.Join("testdata", "exposition", "router_metrics.txt")
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
		t.Fatalf("router /metrics drifted:\n got:\n%s\nwant:\n%s\n(regenerate with -update-exposition only for an intentional change)",
			got, want)
	}
}
