package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dram"
	"repro/internal/profile"
	"repro/internal/workload"
	"repro/internal/xgene"
)

// testSpecs is a compact but diverse workload subset for core tests.
func testSpecs() []workload.Spec {
	labels := []string{"backprop", "backprop(par)", "nw", "srad(par)",
		"fmm(par)", "memcached", "pagerank", "random"}
	var out []workload.Spec
	for _, l := range labels {
		spec, err := workload.FindSpec(l)
		if err != nil {
			panic(err)
		}
		out = append(out, spec)
	}
	return out
}

// testUESamples fabricates a small deterministic UE-risk corpus without
// the fleet simulator (core cannot import it): half the servers are
// healthy (sparse single-bit events spread over the address space), half
// faulty (row-clustered multi-bit bursts), labeled accordingly. Four
// servers satisfy the leave-one-server-out evaluation's minimum.
func testUESamples() []UESample {
	var rows []UESample
	for s := 0; s < 4; s++ {
		faulty := s%2 == 1
		for w := 0; w < 6; w++ {
			n := 2 + (s+w)%3
			if faulty {
				n = 12 + w
			}
			events := make([]profile.CEEvent, n)
			for i := range events {
				e := profile.CEEvent{
					T:    float64(i) * (25 + float64(3*s+w)),
					Row:  (i*97 + w*13) % 512,
					Col:  (i*31 + s*7) % 128,
					Bank: i % 8,
					Rank: s % 4,
				}
				if faulty {
					e.Row = 42 + w%2 // weak-row clustering
					if i%3 == 0 {
						e.Bits = 2
					}
					if i > 0 {
						e.T = events[i-1].T + 0.5 // burst spacing
					}
				}
				events[i] = e
			}
			label := 0.0
			if faulty {
				label = 1
			}
			rows = append(rows, UESample{
				Server:     fmt.Sprintf("s%02d", s),
				TREFP:      0.6 + 0.1*float64(w%4),
				VDD:        1.428,
				TempC:      50 + float64(5*(w%3)),
				CEFeatures: profile.CEFeatures(events),
				UE:         label,
			})
		}
	}
	return rows
}

var (
	dsOnce sync.Once
	dsVal  *Dataset
	dsErr  error
)

// testDataset builds one shared dataset for the package's tests.
func testDataset(t *testing.T) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		specs := testSpecs()
		profiles, err := BuildProfiles(specs, workload.SizeTest, 3, 0)
		if err != nil {
			dsErr = err
			return
		}
		srv := xgene.MustNewServer(xgene.Config{Scale: 32})
		dsVal, dsErr = BuildDataset(srv, profiles, specs, CampaignOptions{Reps: 4, Workers: 0})
		if dsErr == nil {
			dsVal.SetUER(testUESamples())
		}
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestDatasetShape(t *testing.T) {
	ds := testDataset(t)
	// 8 workloads x 8 ranks x (completed configs). At least the 50/60 °C
	// grid (8 configs) must be complete for every workload.
	minRows := len(testSpecs()) * 8 * 8
	if len(ds.WER) < minRows {
		t.Fatalf("WER rows = %d, want >= %d", len(ds.WER), minRows)
	}
	if len(ds.PUE) != len(testSpecs())*len(PUETrefps) {
		t.Fatalf("PUE rows = %d", len(ds.PUE))
	}
	for _, s := range ds.WER {
		if s.WER <= 0 {
			t.Fatal("non-positive WER row")
		}
		if len(s.Features) != profile.NumFeatures {
			t.Fatalf("row has %d features", len(s.Features))
		}
	}
	for _, s := range ds.PUE {
		if s.PUE < 0 || s.PUE > 1 {
			t.Fatalf("PUE %v outside [0,1]", s.PUE)
		}
	}
}

func TestDatasetExcludesCrashedConfigs(t *testing.T) {
	ds := testDataset(t)
	// At 70 °C / 2.283 s every run crashes (paper: PUE = 1.0 for all
	// benchmarks), so no WER rows can exist there. Intermediate TREFPs
	// crash probabilistically; surviving runs contribute WER rows, as in
	// the paper's Fig. 7e.
	for _, s := range ds.WER {
		if s.TempC == 70 && s.TREFP == 2.283 {
			t.Fatalf("WER row at 70°C TREFP=%v should have crashed", s.TREFP)
		}
	}
}

func TestPUECliff(t *testing.T) {
	ds := testDataset(t)
	// All workloads crash always at 2.283 s / 70 °C.
	for _, s := range ds.PUE {
		if s.TREFP == 2.283 && s.PUE != 1 {
			t.Fatalf("%s PUE at 2.283s = %v, want 1.0", s.Workload, s.PUE)
		}
	}
	// Mean PUE grows with TREFP.
	mean := map[float64]float64{}
	n := map[float64]float64{}
	for _, s := range ds.PUE {
		mean[s.TREFP] += s.PUE
		n[s.TREFP]++
	}
	if mean[1.450]/n[1.450] > mean[1.727]/n[1.727] {
		t.Fatal("PUE not increasing with TREFP")
	}
}

func TestWERGrowsWithTREFPInDataset(t *testing.T) {
	ds := testDataset(t)
	// Mean WER at 2.283 must dominate 0.618 at 60 °C (at the test
	// simulation scale the 50 °C runs see sub-single-count statistics).
	sum := map[float64]float64{}
	cnt := map[float64]float64{}
	for _, s := range ds.WER {
		if s.TempC != 60 {
			continue
		}
		sum[s.TREFP] += s.WER
		cnt[s.TREFP]++
	}
	lo := sum[0.618] / cnt[0.618]
	hi := sum[2.283] / cnt[2.283]
	if hi < 20*lo {
		t.Fatalf("WER growth 0.618->2.283 only %vx", hi/lo)
	}
}

func TestInputSetVectors(t *testing.T) {
	ds := testDataset(t)
	s := &ds.WER[0]
	if got := len(InputSet1.werVector(s)); got != 3+4+8 {
		t.Fatalf("set1 WER vector has %d entries", got)
	}
	if got := len(InputSet2.werVector(s)); got != 3+2+8 {
		t.Fatalf("set2 WER vector has %d entries", got)
	}
	if got := len(InputSet3.werVector(s)); got != 3+profile.NumFeatures+8 {
		t.Fatalf("set3 WER vector has %d entries", got)
	}
	p := &ds.PUE[0]
	if got := len(InputSet2.pueVector(p)); got != 3+2 {
		t.Fatalf("set2 PUE vector has %d entries", got)
	}
}

func TestTrainAndPredictWER(t *testing.T) {
	ds := testDataset(t)
	pred, err := Train(ds, TargetWER, ModelKNN, InputSet1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// In-sample prediction must be close for KNN (the sample itself is a
	// neighbour). Pick a sample with observed errors.
	var smp WERSample
	for _, s := range ds.WER {
		if s.WER > WERFloor*10 {
			smp = s
			break
		}
	}
	if smp.Workload == "" {
		t.Skip("no observed-error rows at test scale")
	}
	got, err := pred.Predict(Query{
		Features: smp.Features, TREFP: smp.TREFP, VDD: smp.VDD,
		TempC: smp.TempC, Rank: smp.Rank,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value <= 0 {
		t.Fatalf("non-positive WER prediction %v", got.Value)
	}
	if got.Target != TargetWER || got.Kind != ModelKNN || got.Set != InputSet1 {
		t.Fatalf("prediction metadata %+v", got)
	}
	if got.ByRank != nil {
		t.Fatalf("single-rank query returned a per-rank breakdown: %v", got.ByRank)
	}
	ratio := got.Value / smp.WER
	if ratio < 0.05 || ratio > 20 {
		t.Fatalf("in-sample prediction off by %vx", ratio)
	}
}

func TestDeviceQueryAveragesRanks(t *testing.T) {
	ds := testDataset(t)
	pred, err := Train(ds, TargetWER, ModelKNN, InputSet1, 0)
	if err != nil {
		t.Fatal(err)
	}
	smp := ds.WER[0]
	got, err := pred.Predict(Query{
		Features: smp.Features, TREFP: smp.TREFP, VDD: smp.VDD,
		TempC: smp.TempC, Rank: RankDevice,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value <= 0 {
		t.Fatal("non-positive mean prediction")
	}
	if len(got.ByRank) != dram.NumRanks {
		t.Fatalf("%d per-rank predictions", len(got.ByRank))
	}
	// The device value is exactly the mean of the breakdown, and each
	// entry matches the corresponding single-rank query.
	sum := 0.0
	for r, v := range got.ByRank {
		sum += v
		single, err := pred.Predict(Query{
			Features: smp.Features, TREFP: smp.TREFP, VDD: smp.VDD,
			TempC: smp.TempC, Rank: r,
		})
		if err != nil {
			t.Fatal(err)
		}
		if single.Value != v {
			t.Fatalf("rank %d: device breakdown %v != single-rank query %v", r, v, single.Value)
		}
	}
	if got.Value != sum/float64(dram.NumRanks) {
		t.Fatalf("device value %v != mean of breakdown %v", got.Value, sum/float64(dram.NumRanks))
	}
}

func TestTrainPUEPredicts(t *testing.T) {
	ds := testDataset(t)
	pred, err := Train(ds, TargetPUE, ModelKNN, InputSet2, 0)
	if err != nil {
		t.Fatal(err)
	}
	smp := ds.PUE[0]
	got, err := pred.Predict(Query{Features: smp.Features, TREFP: 2.283, VDD: smp.VDD, TempC: 70})
	if err != nil {
		t.Fatal(err)
	}
	if got.Value < 0.5 {
		t.Fatalf("PUE at max TREFP predicted %v, want high", got.Value)
	}
	mid, err := pred.Predict(Query{Features: smp.Features, TREFP: 1.45, VDD: smp.VDD, TempC: 70})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Value < 0 || mid.Value > 1 {
		t.Fatalf("PUE prediction %v outside [0,1]", mid.Value)
	}
}

func TestEvaluateWERAllModels(t *testing.T) {
	ds := testDataset(t)
	for _, kind := range ModelKinds() {
		ev, err := EvaluateWER(ds, kind, InputSet1, 0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ev.MPE <= 0 || math.IsNaN(ev.MPE) {
			t.Fatalf("%s: MPE = %v", kind, ev.MPE)
		}
		if len(ev.MPEByWorkload) != len(testSpecs()) {
			t.Fatalf("%s: %d workload entries", kind, len(ev.MPEByWorkload))
		}
		for r := 0; r < dram.NumRanks; r++ {
			if ev.MPEByRank[r] < 0 {
				t.Fatalf("%s: negative MPE for rank %d", kind, r)
			}
		}
	}
}

func TestEvaluatePUEAllModels(t *testing.T) {
	ds := testDataset(t)
	for _, kind := range ModelKinds() {
		ev, err := EvaluatePUE(ds, kind, InputSet2, 0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ev.MAE < 0 || ev.MAE > 1 {
			t.Fatalf("%s: MAE = %v", kind, ev.MAE)
		}
	}
}

func TestConventionalBaseline(t *testing.T) {
	ds := testDataset(t)
	conv, err := NewConventionalModel(ds, "random")
	if err != nil {
		t.Fatal(err)
	}
	w, err := conv.Predict(2.283, 50, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Fatal("baseline returned no rate")
	}
	if _, err := conv.Predict(9.9, 50, 0); err == nil {
		t.Fatal("unknown operating point accepted")
	}
	if _, err := NewConventionalModel(ds, "nonexistent"); err == nil {
		t.Fatal("missing micro-benchmark accepted")
	}
}

func TestConventionalOverestimatesTypicalWorkloads(t *testing.T) {
	ds := testDataset(t)
	conv, err := NewConventionalModel(ds, "random")
	if err != nil {
		t.Fatal(err)
	}
	// The random pattern should over-predict the WER of cache-friendly
	// workloads like memcached by a large factor.
	var ratios []float64
	for _, s := range ds.WER {
		if s.Workload != "memcached" || s.TempC != 60 {
			continue
		}
		base, err := conv.Predict(s.TREFP, s.TempC, s.Rank)
		if err != nil || s.WER <= WERFloor {
			continue
		}
		ratios = append(ratios, base/s.WER)
	}
	if len(ratios) == 0 {
		t.Skip("no comparable samples")
	}
	big := 0
	for _, r := range ratios {
		if r > 1.5 {
			big++
		}
	}
	if big*2 < len(ratios) {
		t.Fatalf("conventional model not pessimistic for memcached (%d/%d ratios > 1.5x)",
			big, len(ratios))
	}
}

func TestCorrelateFeatures(t *testing.T) {
	ds := testDataset(t)
	cors := CorrelateFeatures(ds)
	if len(cors) != profile.NumFeatures {
		t.Fatalf("%d correlations", len(cors))
	}
	for _, c := range cors {
		if c.RsWER < -1-1e-9 || c.RsWER > 1+1e-9 {
			t.Fatalf("%s rsWER = %v", c.Name, c.RsWER)
		}
	}
	// The access-rate feature must be present; its positive correlation
	// with WER (Fig. 10's headline) is asserted at experiment scale in
	// internal/exp, where the profiles are statistically meaningful.
	if _, ok := CorrelationOf(cors, "mem_accesses_per_kcycle"); !ok {
		t.Fatal("access-rate feature missing")
	}
	top := TopCorrelated(cors, 10)
	if len(top) != 10 {
		t.Fatalf("TopCorrelated returned %d", len(top))
	}
	if abs(top[0].RsWER) < abs(top[9].RsWER) {
		t.Fatal("TopCorrelated not sorted")
	}
}

func TestModelKindsAndSets(t *testing.T) {
	if len(ModelKinds()) != 3 || len(InputSets()) != 3 {
		t.Fatal("paper compares 3 models x 3 input sets")
	}
	if InputSet1.String() != "Input set 1" {
		t.Fatalf("set name %q", InputSet1.String())
	}
	if _, err := trainerFor(ModelKind("bogus"), 1); err == nil {
		t.Fatal("unknown model kind accepted")
	}
}

func TestLogWERRoundTrip(t *testing.T) {
	for _, w := range []float64{1e-10, 1e-7, 3.7e-5} {
		if got := unlogWER(logWER(w)); math.Abs(got-w)/w > 1e-9 {
			t.Fatalf("log round trip: %v -> %v", w, got)
		}
	}
	if unlogWER(logWER(0)) != WERFloor {
		t.Fatal("zero WER should floor")
	}
}

// TestEvaluateWERRowsAlignment pins the fixed Predictions indexing:
// Predictions is indexed by the floor-filtered row subset, and Rows maps
// each prediction back to its ds.WER index. A dataset with floor rows in
// front must yield Rows that skip them.
func TestEvaluateWERRowsAlignment(t *testing.T) {
	base := testDataset(t)
	// Force a few leading rows to the observation floor so the evaluated
	// subset provably diverges from 0..n-1 indexing.
	ds := &Dataset{Build: base.Build, PUE: base.PUE, Profiles: base.Profiles}
	ds.WER = append([]WERSample(nil), base.WER...)
	for i := 0; i < 3; i++ {
		ds.WER[i].WER = WERFloor
	}
	ev, err := EvaluateWER(ds, ModelKNN, InputSet1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Rows) != len(ev.Predictions) {
		t.Fatalf("Rows has %d entries for %d predictions", len(ev.Rows), len(ev.Predictions))
	}
	// Rows must be exactly the above-floor indices, in dataset order.
	var want []int
	for i := range ds.WER {
		if ds.WER[i].WER > WERFloor {
			want = append(want, i)
		}
	}
	if len(want) != len(ev.Rows) {
		t.Fatalf("Rows has %d entries, %d rows above the floor", len(ev.Rows), len(want))
	}
	for k := range want {
		if ev.Rows[k] != want[k] {
			t.Fatalf("Rows[%d] = %d, want %d", k, ev.Rows[k], want[k])
		}
	}
	if ev.Rows[0] < 3 {
		t.Fatalf("Rows[0] = %d points at a floored row", ev.Rows[0])
	}
	// Each prediction must be a plausible estimate of its mapped row (same
	// target space; floored rows excluded).
	for k, idx := range ev.Rows {
		if ds.WER[idx].WER <= WERFloor {
			t.Fatalf("prediction %d maps to floored row %d", k, idx)
		}
		if ev.Predictions[k] <= 0 || math.IsNaN(ev.Predictions[k]) {
			t.Fatalf("prediction %d = %v", k, ev.Predictions[k])
		}
	}
}

func TestWithoutWorkload(t *testing.T) {
	ds := testDataset(t)
	label := ds.WER[0].Workload
	werBefore, pueBefore := len(ds.WER), len(ds.PUE)
	out := ds.WithoutWorkload(label)
	if len(out.WER) >= werBefore {
		t.Fatalf("no WER rows removed for %s", label)
	}
	for _, s := range out.WER {
		if s.Workload == label {
			t.Fatalf("WER row for %s survived", label)
		}
	}
	for _, s := range out.PUE {
		if s.Workload == label {
			t.Fatalf("PUE row for %s survived", label)
		}
	}
	if out.Profiles != nil && out.Profiles[label] != nil {
		t.Fatalf("profile for %s survived", label)
	}
	// The receiver is untouched.
	if len(ds.WER) != werBefore || len(ds.PUE) != pueBefore {
		t.Fatal("WithoutWorkload mutated its receiver")
	}
}
