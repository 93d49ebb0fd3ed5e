package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/profile"
	"repro/internal/workload"
)

// predictorKey identifies one reference predictor of the gate.
type predictorKey struct {
	fp     string
	target core.Target
	set    int
}

// refs trains reference predictors on demand, timing every fit.
type refs struct {
	kind     core.ModelKind
	datasets map[string]*core.Dataset
	preds    map[predictorKey]core.Predictor
	fits     []float64 // ms
}

func (rf *refs) get(k predictorKey) (core.Predictor, error) {
	if p, ok := rf.preds[k]; ok {
		return p, nil
	}
	ds, ok := rf.datasets[k.fp]
	if !ok {
		return nil, fmt.Errorf("no artifact with fingerprint %s was published", k.fp)
	}
	t0 := time.Now()
	p, err := core.Train(ds, k.target, rf.kind, core.InputSet(k.set), nproc())
	if err != nil {
		return nil, err
	}
	rf.fits = append(rf.fits, ms(time.Since(t0)))
	rf.preds[k] = p
	return p, nil
}

// features profiles every catalog workload the way the serving artifact
// was built, timing each profile.BuildAt.
func (r *runner) features() (map[string][]float64, error) {
	out := map[string][]float64{}
	var times []float64
	for _, spec := range workload.ExtendedSet() {
		t0 := time.Now()
		res, err := profile.BuildAt(spec, r.size(), r.campaignSeed())
		if err != nil {
			return nil, err
		}
		times = append(times, ms(time.Since(t0)))
		r.tracer.direct("profile.build", t0, time.Now())
		out[spec.Label] = res.Features
	}
	r.rep.set("profile.build_ms", median(times))
	return out, nil
}

// coreQuery is the in-process form of a fleet query, as the server builds
// it from the /v2 request.
func coreQuery(q *fleet.Query, t core.Target, feats []float64) core.Query {
	vdd := q.VDD
	if vdd == 0 {
		vdd = dram.MinVDD
	}
	return core.Query{Target: t, Features: feats, TREFP: q.TREFP, VDD: vdd, TempC: q.TempC,
		Rank: core.RankDevice, CE: q.CE}
}

// gate is the serving workloads' correctness gate, run after the timed
// window: every answer must equal, bit for bit, an in-process core.Train
// predictor for the same (target, kind, input set) trained on the
// artifact whose fingerprint the answer carries.
func (sr *servingRun) gate() error {
	var last *core.Dataset
	for fp, data := range sr.artifacts {
		ds, err := core.ReadDataset(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("retrained artifact %s: %w", fp, err)
		}
		if got := ds.Fingerprint(); got != fp {
			sr.rep.fail("retrain announced %s but published an artifact hashing to %s", fp, got)
		}
		sr.datasets[fp] = ds
		if last == nil || len(ds.WER) > len(last.WER) {
			last = ds
		}
	}
	if last == nil {
		for _, ds := range sr.datasets {
			last = ds
		}
	}
	t0 := time.Now()
	if err := last.SaveAtomic(filepath.Join(sr.dir, "saved.json.gz")); err != nil {
		return err
	}
	sr.tracer.direct("core.save", t0, time.Now())
	sr.rep.set("core.save_ms", ms(time.Since(t0)))

	feats, err := sr.features()
	if err != nil {
		return err
	}
	if sr.opts.tamper {
		for _, a := range sr.answers {
			if a != nil {
				res := a.preds[string(core.TargetWER)]
				res.Value = math.Float64frombits(math.Float64bits(res.Value) ^ 1)
				a.preds[string(core.TargetWER)] = res
				break
			}
		}
	}
	rf := &refs{kind: sr.kind, datasets: sr.datasets, preds: map[predictorKey]core.Predictor{}}
	sr.predictTimes = map[int]map[string]float64{}
	perTarget := map[string][]float64{}
	checked, wrong := 0, 0
	for i, a := range sr.answers {
		if a == nil {
			continue
		}
		q := &sr.qs[i]
		times := map[string]float64{}
		for name, res := range a.preds {
			t := core.Target(name)
			p, err := rf.get(predictorKey{a.fp, t, res.InputSet})
			if err != nil {
				return fmt.Errorf("reference predictor: %w", err)
			}
			cq := coreQuery(q, t, feats[q.Workload])
			t0 := time.Now()
			want, err := p.Predict(cq)
			d := us(time.Since(t0))
			if err != nil {
				return fmt.Errorf("reference predict: %w", err)
			}
			times[name] = d
			perTarget[name] = append(perTarget[name], d)
			checked++
			if !sameBits(res.Value, want.Value) || !sameSlice(res.ByRank, want.ByRank) {
				wrong++
				if wrong <= 3 {
					sr.rep.fail("query %d %s: served %v (by rank %v) on %s, reference %v (by rank %v)",
						q.Seq, name, res.Value, res.ByRank, a.fp, want.Value, want.ByRank)
				}
			}
		}
		sr.predictTimes[q.Seq] = times
	}
	if wrong > 3 {
		sr.rep.fail("%d of %d served predictions differ from the reference", wrong, checked)
	}
	logf("correctness gate: %d predictions on %d artifact(s) checked bit for bit, %d wrong", checked, len(sr.datasets), wrong)
	for _, t := range core.Targets() {
		sr.rep.set("core.predict_us."+string(t), median(perTarget[string(t)]))
	}
	sr.rep.set("core.fit_ms", median(rf.fits))
	return nil
}

// predictUS is the in-process predict time of one (query, target), for the
// serve.self attribution; 0 when the query was not checked.
func (r *runner) predictUS(query int, target string) float64 {
	if r.predictTimes == nil {
		return 0
	}
	return r.predictTimes[query][target]
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}
