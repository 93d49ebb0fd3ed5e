package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/profile"
)

// concurrentQueries is the query mix each target is checked on: training
// rows' operating points, with device-level WER queries mixed in and CE
// windows of varying shape for the telemetry target.
func concurrentQueries(ds *Dataset, target Target) []Query {
	var qs []Query
	switch target {
	case TargetWER:
		for i, s := range ds.WER {
			if i >= 48 {
				break
			}
			rank := s.Rank
			if i%3 == 0 {
				rank = RankDevice
			}
			qs = append(qs, Query{Features: s.Features, TREFP: s.TREFP, VDD: s.VDD, TempC: s.TempC, Rank: rank})
		}
	case TargetPUE:
		for _, s := range ds.PUE {
			qs = append(qs, Query{Features: s.Features, TREFP: s.TREFP, VDD: s.VDD, TempC: s.TempC})
		}
	default:
		for i := 0; i < 24; i++ {
			ce := make([]profile.CEEvent, i%7)
			for j := range ce {
				ce[j] = profile.CEEvent{T: float64(j) * float64(1+i%4), Row: 40 + (i*j)%3, Col: j, Bank: i % 8, Rank: i % 4, Bits: 1 + j%2}
			}
			qs = append(qs, Query{TREFP: 0.6 + 0.05*float64(i%8), VDD: 1.428, TempC: 50 + float64(i%15), CE: ce})
		}
	}
	for i := range qs {
		qs[i].Target = target
	}
	return qs
}

// TestConcurrentPredictMatchesSequential pins the property the serving
// layer relies on when it predicts a query's targets and a batch's queries
// on separate goroutines: Predict on one shared predictor, called from
// many goroutines at once, answers every query bit-identically to a
// sequential call — for every target, every model kind, device-level WER
// queries included.
func TestConcurrentPredictMatchesSequential(t *testing.T) {
	const goroutines = 8
	ds := testDataset(t)
	for _, target := range Targets() {
		qs := concurrentQueries(ds, target)
		for _, kind := range ModelKinds() {
			pred, err := Train(ds, target, kind, 0, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", target, kind, err)
			}
			want := make([]Prediction, len(qs))
			for i, q := range qs {
				if want[i], err = pred.Predict(q); err != nil {
					t.Fatalf("%s/%s query %d: %v", target, kind, i, err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Each goroutine walks the queries from its own offset,
					// so different queries overlap in time.
					for k := range qs {
						i := (k + g*len(qs)/goroutines) % len(qs)
						got, err := pred.Predict(qs[i])
						if err != nil {
							errs <- fmt.Sprintf("query %d: %v", i, err)
							return
						}
						if !samePrediction(got, want[i]) {
							errs <- fmt.Sprintf("query %d: concurrent %+v, sequential %+v", i, got, want[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for msg := range errs {
				t.Fatalf("%s/%s: %s", target, kind, msg)
			}
		}
	}
}

// samePrediction compares two predictions bit for bit.
func samePrediction(a, b Prediction) bool {
	if a.Target != b.Target || a.Kind != b.Kind || a.Set != b.Set ||
		math.Float64bits(a.Value) != math.Float64bits(b.Value) || len(a.ByRank) != len(b.ByRank) {
		return false
	}
	for r := range a.ByRank {
		if math.Float64bits(a.ByRank[r]) != math.Float64bits(b.ByRank[r]) {
			return false
		}
	}
	return true
}
