package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/profile"
)

// exampleDataset builds a tiny synthetic training corpus: two fake
// workloads observed on every rank over a few operating points. Real
// corpora come from characterization campaigns (core.BuildDataset) or a
// saved artifact (core.LoadDataset); a synthetic one keeps the examples
// fast and their output stable.
func exampleDataset() *core.Dataset {
	features := func(treuse, hdp, wait, mem float64) []float64 {
		f := make([]float64, profile.NumFeatures)
		f[profile.FeatTreuse] = treuse
		f[profile.FeatHDP] = hdp
		f[profile.FeatWaitCycles] = wait
		f[profile.FeatMemAccesses] = mem
		return f
	}
	workloads := []struct {
		label string
		feats []float64
		base  float64 // error-proneness of the workload's access pattern
	}{
		{"alpha", features(0.20, 12, 0.30, 60), 1e-7},
		{"beta", features(0.01, 28, 0.60, 220), 5e-7},
	}
	ds := &core.Dataset{}
	for _, w := range workloads {
		for _, trefp := range []float64{1.173, 2.283} {
			for _, temp := range []float64{60, 70} {
				for rank := 0; rank < dram.NumRanks; rank++ {
					ds.WER = append(ds.WER, core.WERSample{
						Workload: w.label, TREFP: trefp, VDD: dram.MinVDD,
						TempC: temp, Rank: rank, Features: w.feats,
						WER: w.base * trefp * trefp * (temp - 50) * float64(rank+1),
					})
				}
			}
		}
		for i, trefp := range []float64{1.450, 1.727, 2.283} {
			ds.PUE = append(ds.PUE, core.PUESample{
				Workload: w.label, TREFP: trefp, VDD: dram.MinVDD, TempC: 70,
				Features: w.feats, PUE: float64(i) / 2,
			})
		}
	}
	return ds
}

// ExampleTrain fits the paper's published model (KNN on the target's
// default input set) and answers one device-level query — the whole
// prediction API in four calls.
func ExampleTrain() {
	ds := exampleDataset()

	// Train(dataset, target, model kind, input set, workers): input set 0
	// selects the target's published default (set 1 for WER).
	pred, err := core.Train(ds, core.TargetWER, core.ModelKNN, 0, 1)
	if err != nil {
		panic(err)
	}

	// Rank selects one DIMM/rank; RankDevice asks for the whole device
	// (per-rank breakdown plus their mean as Value).
	p, err := pred.Predict(core.Query{
		Features: ds.WER[0].Features,
		TREFP:    2.283, VDD: dram.MinVDD, TempC: 70,
		Rank: core.RankDevice,
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("model:", p.Kind, "for", p.Target, "on", p.Set)
	fmt.Println("device-mean WER in (0, 1]:", p.Value > 0 && p.Value <= 1)
	fmt.Println("per-rank breakdown entries:", len(p.ByRank))
	// Output:
	// model: KNN for wer on Input set 1
	// device-mean WER in (0, 1]: true
	// per-rank breakdown entries: 8
}
