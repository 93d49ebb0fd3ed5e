package core

import (
	"testing"

	"repro/internal/dram"
)

// benchQueries builds a mixed batch of warm queries covering both targets,
// several operating points and both rank modes — the shape of traffic the
// serving layer forwards here.
func benchQueries(ds *Dataset) (wer, pue []Query) {
	trefps := []float64{1.173, 1.727, 2.283}
	temps := []float64{55, 62, 70}
	feats := [][]float64{ds.WER[0].Features, ds.WER[len(ds.WER)/2].Features}
	for i := 0; i < 32; i++ {
		q := Query{
			Features: feats[i%len(feats)],
			TREFP:    trefps[i%len(trefps)],
			VDD:      dram.MinVDD,
			TempC:    temps[i%len(temps)],
			Rank:     i % dram.NumRanks,
		}
		if i%8 == 7 {
			q.Rank = RankDevice
		}
		wer = append(wer, q)
		q.Rank = 0
		pue = append(pue, q)
	}
	return wer, pue
}

// BenchmarkPredictBatch is the canonical core-layer benchmark: one op is
// 64 sequential Predict calls, a mixed set of 32 WER (incl. device-level)
// and 32 PUE queries against warm KNN predictors. The name predates the
// loop and is kept as the key tracked in BENCH_<machine-class>.json by
// scripts/bench.sh.
func BenchmarkPredictBatch(b *testing.B) {
	ds := hotpathDataset()
	wer, err := Train(ds, TargetWER, ModelKNN, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	pue, err := Train(ds, TargetPUE, ModelKNN, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	werQ, pueQ := benchQueries(ds)
	run := func() {
		for i := range werQ {
			if _, err := wer.Predict(werQ[i]); err != nil {
				b.Fatal(err)
			}
			if _, err := pue.Predict(pueQ[i]); err != nil {
				b.Fatal(err)
			}
		}
	}
	run() // warm the vector pool before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
