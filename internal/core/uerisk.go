package core

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/profile"
	"repro/internal/stats"
)

// ue_risk: probability of an uncorrectable error within the observation
// horizon, classified from correctable-error telemetry. This is the
// post-2019 field-failure scenario ("Exploring Error Bits for Memory
// Failure Prediction", "DRAM Failure Prediction in AIOps"): instead of
// predicting characterization results from program features, predict
// whether a server's DIMM is about to fail from the spatial structure of
// its scrubbed CE log. This file is the target's entire core integration —
// sample type, vectorizer, trainer, predictor, evaluation and registry
// entry — demonstrating that target addition is a one-file operation.

// TargetUERisk is the uncorrectable-error-risk classifier target.
const TargetUERisk Target = "ue_risk"

func init() {
	registerTarget(TargetDescriptor{
		Name:           TargetUERisk,
		Doc:            "probability of uncorrectable error within the horizon, from CE telemetry (classification)",
		DefaultSet:     InputSet1,
		Classification: true,
		NeedsTelemetry: true,
		Train: func(ds *Dataset, kind ModelKind, set InputSet, workers int) (Predictor, error) {
			return trainUERisk(ds, kind, set, workers)
		},
		Available: func(ds *Dataset) bool { return len(ds.UER) > 0 },
	})
}

// UESample is one row of the UE-risk training set: a server's CE telemetry
// window, vectorized, with the ground-truth outcome label.
type UESample struct {
	// Server identifies the observed machine; it is the cross-validation
	// group (leave-one-server-out — a server's windows never split across
	// train and test).
	Server string `json:"server"`
	// TREFP, VDD, TempC are the operating point during the window.
	TREFP float64 `json:"trefp"`
	VDD   float64 `json:"vdd"`
	TempC float64 `json:"temp_c"`
	// CEFeatures is the profile.NumCEFeatures-entry error-bit vector
	// extracted from the window's CE log (profile.CEFeatures).
	CEFeatures []float64 `json:"ce_features"`
	// UE is the label: 1 if the server experienced an uncorrectable error
	// within the prediction horizon after the window, else 0.
	UE float64 `json:"ue"`
}

// SetUER replaces the dataset's UE-risk rows (typically synthesized from
// the fleet simulator's telemetry stream) and invalidates the memoized
// fingerprint: the rows are part of the content hash.
func (ds *Dataset) SetUER(rows []UESample) {
	ds.UER = rows
	ds.fp = ""
	ds.summary = nil // derived from the rows just replaced
}

// ueCompactFeatures is the input-set-2 subset of the CE catalog: the four
// strongest standalone signals (volume, row spread, row concentration,
// multi-bit fraction), mirroring how set 2 prunes the program features.
var ueCompactFeatures = []int{
	profile.CEFeatEvents,
	profile.CEFeatDistinctRows,
	profile.CEFeatMaxRowShare,
	profile.CEFeatMultibitFrac,
}

// ueVectorInto assembles the UE-risk model input into dst's storage:
// operating point plus the set's slice of the CE feature vector. Sets 1
// and 3 use the full error-bit catalog; set 2 the compact subset.
func (s InputSet) ueVectorInto(dst []float64, tempC, trefp, vdd float64, ce []float64) []float64 {
	out := append(dst[:0], tempC, trefp, vdd)
	if s == InputSet2 {
		for _, f := range ueCompactFeatures {
			out = append(out, ce[f])
		}
		return out
	}
	return append(out, ce...)
}

// ueVector is the allocating form of ueVectorInto.
func (s InputSet) ueVector(smp *UESample) []float64 {
	return s.ueVectorInto(nil, smp.TempC, smp.TREFP, smp.VDD, smp.CEFeatures)
}

// ueRiskPredictor classifies UE risk from telemetry. It implements
// Predictor for TargetUERisk.
type ueRiskPredictor struct {
	kind   ModelKind
	set    InputSet
	scaler *ml.Scaler
	model  ml.Regressor
}

// trainUERisk fits a UE-risk classifier on the dataset's telemetry rows.
func trainUERisk(ds *Dataset, kind ModelKind, set InputSet, workers int) (*ueRiskPredictor, error) {
	if len(ds.UER) == 0 {
		return nil, fmt.Errorf("core: empty UE-risk dataset (synthesize telemetry rows with dramtrain -ue-windows)")
	}
	trainer, err := classifierTrainerFor(kind, workers)
	if err != nil {
		return nil, err
	}
	X := make([][]float64, len(ds.UER))
	y := make([]float64, len(ds.UER))
	for i := range ds.UER {
		s := &ds.UER[i]
		if len(s.CEFeatures) != profile.NumCEFeatures {
			return nil, fmt.Errorf("core: UE row for %s has %d CE features, want %d",
				s.Server, len(s.CEFeatures), profile.NumCEFeatures)
		}
		X[i] = set.ueVector(s)
		y[i] = s.UE
	}
	scaler, err := ml.FitScaler(X)
	if err != nil {
		return nil, err
	}
	model, err := trainer.Train(scaler.TransformAll(X), y)
	if err != nil {
		return nil, err
	}
	return &ueRiskPredictor{kind: kind, set: set, scaler: scaler, model: model}, nil
}

func (p *ueRiskPredictor) Target() Target     { return TargetUERisk }
func (p *ueRiskPredictor) Kind() ModelKind    { return p.kind }
func (p *ueRiskPredictor) InputSet() InputSet { return p.set }

// Predict implements Predictor: the UE probability in [0, 1] for the
// query's telemetry window. An empty CE log is a valid (healthy)
// observation — it vectorizes to zeros; an out-of-order log is rejected.
// Rank and Features play no part.
func (p *ueRiskPredictor) Predict(q Query) (Prediction, error) {
	if err := checkTarget(TargetUERisk, q.Target); err != nil {
		return Prediction{}, err
	}
	if err := profile.ValidateCEEvents(q.CE); err != nil {
		return Prediction{}, err
	}
	var ce [profile.NumCEFeatures]float64
	profile.CEFeaturesInto(ce[:], q.CE)
	v := predictVec(p.scaler, p.model, func(dst []float64) []float64 {
		return p.set.ueVectorInto(dst, q.TempC, q.TREFP, q.VDD, ce[:])
	})
	return Prediction{
		Target: TargetUERisk, Kind: p.kind, Set: p.set,
		Value: stats.Clamp(v, 0, 1),
	}, nil
}

// UERiskEval holds the leave-one-server-out accuracy of one (model, input
// set) classifier — precision/recall at the 0.5 decision threshold plus
// the threshold-free AUC, the metrics the failure-prediction literature
// reports.
type UERiskEval struct {
	Kind ModelKind
	Set  InputSet
	// Precision and Recall score positive calls at threshold 0.5.
	Precision float64
	Recall    float64
	// AUC is the area under the ROC curve (0.5 = no ranking information).
	AUC float64
	// Positives counts ground-truth UE labels in the evaluated rows.
	Positives int
	// Predictions aligns with the dataset's UER rows.
	Predictions []float64
}

// EvaluateUERisk cross-validates a UE-risk classifier with
// leave-one-server-out folds (a server's windows never split across train
// and test — the grouping the AIOps literature uses to avoid leaking
// machine identity). Up to workers folds run concurrently (0 =
// GOMAXPROCS); the result is identical for every worker count.
func EvaluateUERisk(ds *Dataset, kind ModelKind, set InputSet, workers int) (*UERiskEval, error) {
	if len(ds.UER) == 0 {
		return nil, fmt.Errorf("core: empty UE-risk dataset")
	}
	// CV folds already fan out over workers; each fold's trainer stays
	// sequential so the workers knob bounds total parallelism.
	trainer, err := classifierTrainerFor(kind, 1)
	if err != nil {
		return nil, err
	}
	X := make([][]float64, len(ds.UER))
	y := make([]float64, len(ds.UER))
	groups := make([]string, len(ds.UER))
	for i := range ds.UER {
		X[i] = set.ueVector(&ds.UER[i])
		y[i] = ds.UER[i].UE
		groups[i] = ds.UER[i].Server
	}
	preds, err := ml.LeaveOneGroupOut(trainer, X, y, groups, workers)
	if err != nil {
		return nil, err
	}
	for i := range preds {
		preds[i] = stats.Clamp(preds[i], 0, 1)
	}
	ev := &UERiskEval{Kind: kind, Set: set, AUC: ml.AUC(preds, y), Predictions: preds}
	ev.Precision, ev.Recall = ml.PrecisionRecall(preds, y, 0.5)
	for _, v := range y {
		if v > 0.5 {
			ev.Positives++
		}
	}
	return ev, nil
}
