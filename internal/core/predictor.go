package core

import (
	"fmt"
	"sync"

	"repro/internal/dram"
	"repro/internal/ml"
	"repro/internal/stats"
)

// vecPool recycles query feature-vector buffers across predictions. The
// raw vector is assembled into a pooled buffer, standardized in place, fed
// to the model (ml.Regressor.Predict reads its argument and never retains
// it) and returned — a warm single-rank prediction allocates nothing.
var vecPool = sync.Pool{New: func() any { return new([]float64) }}

// predictVec runs one standardized model evaluation: assemble the raw
// vector into a pooled buffer via into, standardize in place, predict.
func predictVec(scaler *ml.Scaler, model ml.Regressor, into func(dst []float64) []float64) float64 {
	bp := vecPool.Get().(*[]float64)
	x := into(*bp)
	scaler.TransformInto(x, x)
	v := model.Predict(x)
	*bp = x
	vecPool.Put(bp)
	return v
}

// ModelKind names one of the paper's three supervised methods.
type ModelKind string

// The three methods of the paper's comparison.
const (
	ModelSVM ModelKind = "SVM"
	ModelKNN ModelKind = "KNN"
	ModelRDF ModelKind = "RDF"
)

// ModelKinds lists them in the paper's order.
func ModelKinds() []ModelKind { return []ModelKind{ModelSVM, ModelKNN, ModelRDF} }

// ParseModelKind resolves a user-supplied model name against the catalog.
func ParseModelKind(s string) (ModelKind, error) {
	kind := ModelKind(s)
	for _, k := range ModelKinds() {
		if k == kind {
			return k, nil
		}
	}
	return "", fmt.Errorf("core: unknown model %q", s)
}

// trainerFor builds the ml.Trainer for a kind. workers bounds the
// trainer's own parallelism (forest tree fits); callers that already fan
// out (CV folds) pass 1 so one knob bounds the total.
func trainerFor(kind ModelKind, workers int) (ml.Trainer, error) {
	switch kind {
	case ModelSVM:
		return ml.SVR{}, nil
	case ModelKNN:
		return ml.KNN{K: 5}, nil
	case ModelRDF:
		return ml.Forest{Trees: 60, Seed: 42, Workers: workers}, nil
	}
	return nil, fmt.Errorf("core: unknown model kind %q", kind)
}

// classifierTrainerFor builds the ml.Trainer for a kind in classification
// mode (0/1 labels, probability output). The forest switches to majority
// voting; KNN and SVM regress on the labels and the predictor clamps to
// [0, 1] — the standard regression-as-classification reduction, keeping
// all three kinds available for every target.
func classifierTrainerFor(kind ModelKind, workers int) (ml.Trainer, error) {
	if kind == ModelRDF {
		return ml.ForestClassifier{Forest: ml.Forest{Trees: 60, Seed: 42, Workers: workers}}, nil
	}
	return trainerFor(kind, workers)
}

// werPredictor is the trained workload-aware WER model: the deliverable
// the paper publishes (the KNN variant) — it predicts the word error rate
// of any workload on a specific DIMM/rank for a given operating point in
// well under a second. It implements Predictor for TargetWER; Train is the
// only way to build one.
type werPredictor struct {
	kind   ModelKind
	set    InputSet
	scaler *ml.Scaler
	model  ml.Regressor
}

// trainWER fits a WER predictor on the dataset. The regression target is
// log10(WER): the rate spans four decades.
func trainWER(ds *Dataset, kind ModelKind, set InputSet, workers int) (*werPredictor, error) {
	if len(ds.WER) == 0 {
		return nil, fmt.Errorf("core: empty WER dataset")
	}
	trainer, err := trainerFor(kind, workers)
	if err != nil {
		return nil, err
	}
	var X [][]float64
	var y []float64
	for i := range ds.WER {
		if ds.WER[i].WER <= WERFloor {
			continue // zero observed errors: no rate information
		}
		X = append(X, set.werVector(&ds.WER[i]))
		y = append(y, logWER(ds.WER[i].WER))
	}
	if len(X) == 0 {
		return nil, fmt.Errorf("core: no WER rows above the observation floor")
	}
	scaler, err := ml.FitScaler(X)
	if err != nil {
		return nil, err
	}
	model, err := trainer.Train(scaler.TransformAll(X), y)
	if err != nil {
		return nil, err
	}
	return &werPredictor{kind: kind, set: set, scaler: scaler, model: model}, nil
}

func (p *werPredictor) Target() Target     { return TargetWER }
func (p *werPredictor) Kind() ModelKind    { return p.kind }
func (p *werPredictor) InputSet() InputSet { return p.set }

// predictRank is the raw model evaluation for one rank.
func (p *werPredictor) predictRank(q *Query, rank int) float64 {
	smp := WERSample{TREFP: q.TREFP, VDD: q.VDD, TempC: q.TempC, Rank: rank, Features: q.Features}
	return unlogWER(predictVec(p.scaler, p.model, func(dst []float64) []float64 {
		return p.set.werVectorInto(dst, &smp)
	}))
}

// Predict implements Predictor. A RankDevice query returns the per-rank
// breakdown with the device mean as Value; a single-rank query returns
// that rank's rate alone.
func (p *werPredictor) Predict(q Query) (Prediction, error) {
	if err := checkTarget(TargetWER, q.Target); err != nil {
		return Prediction{}, err
	}
	if err := checkRank(q.Rank); err != nil {
		return Prediction{}, err
	}
	out := Prediction{Target: TargetWER, Kind: p.kind, Set: p.set}
	if q.Rank != RankDevice {
		out.Value = p.predictRank(&q, q.Rank)
		return out, nil
	}
	out.ByRank = make([]float64, dram.NumRanks)
	sum := 0.0
	for r := 0; r < dram.NumRanks; r++ {
		out.ByRank[r] = p.predictRank(&q, r)
		sum += out.ByRank[r]
	}
	out.Value = sum / dram.NumRanks
	return out, nil
}

// puePredictor predicts the crash probability of a workload. It implements
// Predictor for TargetPUE.
type puePredictor struct {
	kind   ModelKind
	set    InputSet
	scaler *ml.Scaler
	model  ml.Regressor
}

// trainPUE fits a PUE predictor on the dataset.
func trainPUE(ds *Dataset, kind ModelKind, set InputSet, workers int) (*puePredictor, error) {
	if len(ds.PUE) == 0 {
		return nil, fmt.Errorf("core: empty PUE dataset")
	}
	trainer, err := trainerFor(kind, workers)
	if err != nil {
		return nil, err
	}
	X := make([][]float64, len(ds.PUE))
	y := make([]float64, len(ds.PUE))
	for i := range ds.PUE {
		X[i] = set.pueVector(&ds.PUE[i])
		y[i] = ds.PUE[i].PUE
	}
	scaler, err := ml.FitScaler(X)
	if err != nil {
		return nil, err
	}
	model, err := trainer.Train(scaler.TransformAll(X), y)
	if err != nil {
		return nil, err
	}
	return &puePredictor{kind: kind, set: set, scaler: scaler, model: model}, nil
}

func (p *puePredictor) Target() Target     { return TargetPUE }
func (p *puePredictor) Kind() ModelKind    { return p.kind }
func (p *puePredictor) InputSet() InputSet { return p.set }

// Predict implements Predictor: the estimated crash probability in [0, 1].
// PUE is system-level, so Rank (and ByRank) play no part.
func (p *puePredictor) Predict(q Query) (Prediction, error) {
	if err := checkTarget(TargetPUE, q.Target); err != nil {
		return Prediction{}, err
	}
	smp := PUESample{TREFP: q.TREFP, VDD: q.VDD, TempC: q.TempC, Features: q.Features}
	v := predictVec(p.scaler, p.model, func(dst []float64) []float64 {
		return p.set.pueVectorInto(dst, &smp)
	})
	return Prediction{
		Target: TargetPUE, Kind: p.kind, Set: p.set,
		Value: stats.Clamp(v, 0, 1),
	}, nil
}
