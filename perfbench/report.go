package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The metric catalog: every name BENCHMARK.json declares, with its unit.
// The package test checks the two agree.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"predict_allocs", "count"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"client.p50_ms", "ms"},
	{"client.qps", "1/s"},
	{"predict_cpu_us", "us"},
	{"predict_alloc_kb", "KB"},
	{"campaign_s", "s"},
	{"campaign_cpu_s", "s"},
	{"campaign.allocs", "count"},
	{"eval_s", "s"},
	{"eval_cpu_s", "s"},
	{"eval.allocs", "count"},
	{"client.samples", "count"},
	{"client.p90_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"retrain_s", "s"},
	{"client.lag_ms.p99", "ms"},
	{"transport.us.p50", "us"},
	{"cluster.self_us.p50", "us"},
	{"cluster.self_us.p99", "us"},
	{"cluster.subreqs_per_query", "ratio"},
	{"cluster.useful_frac", "ratio"},
	{"serve.handler_us.p50", "us"},
	{"serve.handler_us.p99", "us"},
	{"serve.self_us.p50", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.bytes_per_req", "B"},
	{"serve.batch_size", "count"},
	{"serve.fits", "count"},
	{"serve.fit_s", "s"},
	{"serve.profile_builds", "count"},
	{"serve.profile_s", "s"},
	{"serve.ingest_us.p50", "us"},
	{"core.predict_us.wer", "us"},
	{"core.predict_us.pue", "us"},
	{"core.predict_us.ue_risk", "us"},
	{"core.load_ms", "ms"},
	{"core.fit_ms", "ms"},
	{"core.save_ms", "ms"},
	{"profile.build_ms", "ms"},
	{"campaign.profiles_s", "s"},
	{"campaign.characterize_s", "s"},
	{"campaign.ue_windows_s", "s"},
	{"campaign.save_ms", "ms"},
	{"eval.knn_s", "s"},
	{"eval.rdf_s", "s"},
	{"campaign.cpu_util", "ratio"},
	{"trace.p50_overhead_ms", "ms"},
	{"trace.split_gap_frac", "ratio"},
}

// report collects one run's measurements and its correctness verdict.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	// problems lists every failed correctness or validity check; any entry
	// makes the run incorrect.
	problems []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a failed check.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	logf("CHECK FAILED: %s", msg)
	r.problems = append(r.problems, msg)
}

// count adds one phase's request tally.
func (r *report) count(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// result renders the printed object: the end-to-end metrics, or with
// trace the per-layer ones. A per-layer metric of a layer the workload
// never reaches reads 0; a missing end-to-end metric is a bug.
func (r *report) result(trace bool) (*result, error) {
	out := &result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("run attempted no operations")
	}
	cat := endToEnd
	if trace {
		cat = perLayer
	}
	for _, m := range cat {
		v, ok := r.values[m.name]
		if !ok && !trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs, the mean of the middle two for an even
// count; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
