package core

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/profile"
)

// Target names one prediction target of the unified API. The paper's
// deliverable answers two of them from one trained artifact — the word
// error rate and the crash probability — and the registry below makes
// further targets (field-failure classifiers, mitigation scores) a
// one-file addition.
type Target string

const (
	// TargetWER is the word error rate: the fraction of 64-bit words that
	// experience at least one (correctable) error per rank per run.
	TargetWER Target = "wer"
	// TargetPUE is the probability of uncorrectable error: the chance a
	// run crashes the machine (the paper's Eq. 3 crash probability).
	TargetPUE Target = "pue"
)

// TargetDescriptor declares everything the stack needs to serve a target:
// its name, documentation, default input set, prediction semantics, the
// trainer seam and a dataset-availability probe. Every layer — cliflag
// help text, the serve resolve path, the cluster router, the cmds —
// consults the registry instead of switching on constants, so registering
// a descriptor is the whole integration.
type TargetDescriptor struct {
	// Name is the wire and CLI name of the target.
	Name Target
	// Doc is a one-line summary for help text and target catalogs.
	Doc string
	// DefaultSet is the input set used when a query or trainer does not
	// pick one explicitly.
	DefaultSet InputSet
	// Classification marks probability-classifier semantics: Value is a
	// class-1 probability in [0, 1]. False means regression.
	Classification bool
	// NeedsTelemetry marks targets answered from CE error telemetry
	// (Query.CE) rather than program features — the serving layer only
	// defaults such targets in when the query actually carries events.
	NeedsTelemetry bool
	// Train fits a predictor for the target; set arrives validated and
	// defaulted. Mirrors the package-level Train contract.
	Train func(ds *Dataset, kind ModelKind, set InputSet, workers int) (Predictor, error)
	// Available reports whether the dataset carries training rows for
	// this target (artifacts predate targets; old ones simply lack rows).
	Available func(ds *Dataset) bool
}

// The registry. Registration happens at init time, in source-file order
// (target.go registers the paper's pair before uerisk.go adds the
// telemetry classifier), which fixes the catalog order every layer
// surfaces: wer, pue, ue_risk, ...
var (
	targetOrder []Target
	targetIndex = map[Target]TargetDescriptor{}
)

// registerTarget adds a descriptor to the catalog. It panics on
// incomplete or duplicate registrations: a malformed catalog is a
// programming error, caught at process start.
func registerTarget(d TargetDescriptor) {
	if d.Name == "" || d.Train == nil || d.Available == nil {
		panic(fmt.Sprintf("core: incomplete target descriptor %q", d.Name))
	}
	if d.DefaultSet < InputSet1 || d.DefaultSet > InputSet3 {
		panic(fmt.Sprintf("core: target %q default input set %d out of range", d.Name, d.DefaultSet))
	}
	if _, dup := targetIndex[d.Name]; dup {
		panic(fmt.Sprintf("core: duplicate target %q", d.Name))
	}
	targetOrder = append(targetOrder, d.Name)
	targetIndex[d.Name] = d
}

func init() {
	registerTarget(TargetDescriptor{
		Name:       TargetWER,
		Doc:        "word error rate per DIMM/rank (regression)",
		DefaultSet: InputSet1, // the paper's most accurate WER set (Fig. 11)
		Train: func(ds *Dataset, kind ModelKind, set InputSet, workers int) (Predictor, error) {
			return trainWER(ds, kind, set, workers)
		},
		Available: func(ds *Dataset) bool { return len(ds.WER) > 0 },
	})
	registerTarget(TargetDescriptor{
		Name:       TargetPUE,
		Doc:        "probability of uncorrectable error / crash (regression)",
		DefaultSet: InputSet2, // the paper's most accurate PUE set (Fig. 12)
		Train: func(ds *Dataset, kind ModelKind, set InputSet, workers int) (Predictor, error) {
			return trainPUE(ds, kind, set, workers)
		},
		Available: func(ds *Dataset) bool { return len(ds.PUE) > 0 },
	})
}

// Targets lists every registered target in catalog order.
func Targets() []Target {
	out := make([]Target, len(targetOrder))
	copy(out, targetOrder)
	return out
}

// TargetNames lists the registered target names in catalog order — the
// list CLI help text and parse errors surface.
func TargetNames() []string {
	out := make([]string, len(targetOrder))
	for i, t := range targetOrder {
		out[i] = string(t)
	}
	return out
}

// Describe returns the descriptor of a registered target.
func Describe(t Target) (TargetDescriptor, bool) {
	d, ok := targetIndex[t]
	return d, ok
}

// Descriptors returns every registered descriptor in catalog order.
func Descriptors() []TargetDescriptor {
	out := make([]TargetDescriptor, len(targetOrder))
	for i, t := range targetOrder {
		out[i] = targetIndex[t]
	}
	return out
}

// targetNameList renders the catalog for error and help text:
// "wer, pue or ue_risk".
func targetNameList() string {
	names := TargetNames()
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// ParseTarget resolves a user-supplied target name, case-insensitively,
// against the registry.
func ParseTarget(s string) (Target, error) {
	t := Target(strings.ToLower(strings.TrimSpace(s)))
	if t.Valid() {
		return t, nil
	}
	return "", fmt.Errorf("core: unknown target %q (want %s)", s, targetNameList())
}

// Valid reports whether t is a registered target.
func (t Target) Valid() bool {
	_, ok := targetIndex[t]
	return ok
}

// DefaultInputSet is the registered default feature set for the target.
func (t Target) DefaultInputSet() InputSet {
	if d, ok := targetIndex[t]; ok {
		return d.DefaultSet
	}
	return InputSet1
}

// RankDevice, as a Query.Rank, requests the device-level WER: the
// prediction for every rank plus their mean.
const RankDevice = -1

// Query is one prediction request against the unified Predictor API.
type Query struct {
	// Target selects the prediction target. Empty means the predictor's
	// own target (convenient for callers that already hold the right
	// predictor); a non-empty mismatch is an error, never a silent
	// misprediction.
	Target Target
	// Features is the workload's program feature vector (profile.Result
	// Features), from which the input set slices what it needs. Telemetry
	// targets ignore it.
	Features []float64
	// TREFP, VDD and TempC form the operating point.
	TREFP float64
	VDD   float64
	TempC float64
	// Rank selects the DIMM/rank for WER queries: 0..dram.NumRanks-1
	// predicts a single rank, RankDevice the whole device (per-rank
	// breakdown plus mean). PUE is system-level; the field is ignored.
	Rank int
	// CE is the correctable-error telemetry window for NeedsTelemetry
	// targets (time-ordered; see profile.CEEvent). Regression targets
	// ignore it.
	CE []profile.CEEvent
}

// Prediction is the answer to one Query, carrying the model metadata the
// serving layer surfaces to clients.
type Prediction struct {
	// Target, Kind and Set identify the model that produced the value.
	Target Target
	Kind   ModelKind
	Set    InputSet
	// Value is the prediction: the WER of one rank, the device-mean WER
	// (Rank == RankDevice), a crash probability, or a classifier's
	// class-1 probability — [0, 1] for every Classification target.
	Value float64
	// ByRank is the per-rank WER breakdown of a RankDevice query; nil for
	// single-rank WER and for targets with no per-rank structure.
	ByRank []float64
}

// Predictor is the unified prediction interface: one trained model for one
// (target, kind, input set). Implementations are immutable after Train and
// safe for concurrent use, and Predict is deterministic: concurrent calls
// on one predictor answer bit-identically to sequential ones.
type Predictor interface {
	// Target, Kind and InputSet identify what the predictor was trained
	// for and on.
	Target() Target
	Kind() ModelKind
	InputSet() InputSet
	// Predict answers one query.
	Predict(Query) (Prediction, error)
}

// Train fits a predictor for the target on the dataset — the one factory
// every cmd, example and serving handler goes through. set 0 selects the
// target's DefaultInputSet; workers bounds the trainer's own parallelism
// (forest tree fits; 0 = GOMAXPROCS). The fitted model is identical for
// every worker count.
func Train(ds *Dataset, target Target, kind ModelKind, set InputSet, workers int) (Predictor, error) {
	d, ok := targetIndex[target]
	if !ok {
		return nil, fmt.Errorf("core: unknown target %q", target)
	}
	if set == 0 {
		set = d.DefaultSet
	}
	if set < InputSet1 || set > InputSet3 {
		return nil, fmt.Errorf("core: input set %d out of range", set)
	}
	return d.Train(ds, kind, set, workers)
}

// checkTarget validates a query's target against the predictor's.
func checkTarget(want, got Target) error {
	if got != "" && got != want {
		return fmt.Errorf("core: %s query sent to a %s predictor", got, want)
	}
	return nil
}

// checkRank validates a WER query's rank selector.
func checkRank(rank int) error {
	if rank < RankDevice || rank >= dram.NumRanks {
		return fmt.Errorf("core: rank %d out of range [%d, %d)", rank, RankDevice, dram.NumRanks)
	}
	return nil
}
