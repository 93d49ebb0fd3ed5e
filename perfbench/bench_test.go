package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared reads the metric catalog BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks each prints every declared metric with its unit.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layer := declared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res, err := run(options{workload: name, seed: 3, seconds: 1, trace: trace, tiny: true, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

// TestGateRejectsTamperedAnswer flips one bit of one answer before the
// correctness gate and expects the run to be marked incorrect.
func TestGateRejectsTamperedAnswer(t *testing.T) {
	for _, name := range []string{"fleet-knn", "ingest-retrain"} {
		res, err := run(options{workload: name, seed: 3, seconds: 1, tiny: true, tamper: true, out: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct {
			t.Errorf("%s: a tampered answer passed the correctness gate", name)
		}
	}
}

// TestCheckSpansCatchesMisattribution feeds the per-request span checks a
// correctly parented routed request, then breaks it in each way the checks
// are meant to catch.
func TestCheckSpansCatchesMisattribution(t *testing.T) {
	routed := func() []*span {
		return []*span{
			{ID: 1, Layer: "client", Start: 0, End: 100, Query: 7},
			{ID: 2, Parent: 1, Layer: "cluster.router", Start: 10, End: 90},
			{ID: 3, Parent: 2, Layer: "cluster.attempt", Start: 20, End: 80},
			{ID: 4, Parent: 3, Layer: "serve.handler", Start: 30, End: 70},
		}
	}
	one := &subreqCount{ok: 1}
	cases := []struct {
		name  string
		spans func() []*span
		sub   *subreqCount
		bad   bool
	}{
		{"well parented", routed, one, false},
		{"handler outlasts its attempt", func() []*span { s := routed(); s[3].End = 85; return s }, one, true},
		{"abandoned hedge outlasts the router", func() []*span {
			s := routed()
			return append(s,
				&span{ID: 5, Parent: 2, Layer: "cluster.attempt", Start: 40, End: 95, Abandoned: true},
				&span{ID: 6, Parent: 5, Layer: "serve.handler", Start: 45, End: 96})
		}, &subreqCount{ok: 1, extra: 1}, false},
		{"router reaches no handler", func() []*span { s := routed(); s[3].Parent = 0; return s }, &subreqCount{}, true},
		{"client without an outer span", func() []*span { return routed()[:1] }, nil, true},
		{"parent not recorded", func() []*span { s := routed(); s[2].Parent = 99; return s }, one, true},
		{"more handlers than the router counted", routed, &subreqCount{}, true},
		{"fewer handlers than the router answered", routed, &subreqCount{ok: 2}, true},
	}
	for _, c := range cases {
		tr := &tracer{on: true, spans: c.spans()}
		got := tr.checkSpans(c.sub)
		if (len(got) > 0) != c.bad {
			t.Errorf("%s: violations %q, want any: %v", c.name, got, c.bad)
		}
	}
}
