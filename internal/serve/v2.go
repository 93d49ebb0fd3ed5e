package serve

import (
	"net/http"

	"repro/internal/httpapi"
	"repro/internal/profile"
)

// The /v2 wire format: typed per-query target selection, per-target
// results with model metadata, artifact generation/fingerprint on every
// response, and structured {code, field, message} errors. See API.md for
// the full schema.

// PredictRequestV2 is one /v2 prediction query.
type PredictRequestV2 struct {
	Workload string  `json:"workload"`
	TREFP    float64 `json:"trefp"`
	TempC    float64 `json:"temp_c"`
	// VDD defaults to the campaign voltage (dram.MinVDD) when zero.
	VDD float64 `json:"vdd,omitempty"`
	// Model defaults to the paper's published KNN variant.
	Model string `json:"model,omitempty"`
	// InputSet (1–3) selects the feature set for every requested target;
	// zero means each target's published default.
	InputSet int `json:"input_set,omitempty"`
	// Targets selects which prediction targets to compute (see /v2/models
	// for the serving artifact's catalog); empty means the server's default
	// selection for the artifact. A query that omits a target never trains
	// or waits for that target's model.
	Targets []string `json:"targets,omitempty"`
	// CE is the query's correctable-error telemetry window, time-ordered.
	// Telemetry-driven targets (ue_risk) vectorize it; an absent or empty
	// log is a healthy window, not an error.
	CE []profile.CEEvent `json:"ce,omitempty"`
}

// predictBodyV2 accepts either a single query or a batch.
type predictBodyV2 struct {
	PredictRequestV2
	Queries []PredictRequestV2 `json:"queries,omitempty"`
}

// TargetResultV2 is one target's prediction inside a /v2 response.
type TargetResultV2 struct {
	// Value is the prediction: device-mean WER, or crash probability.
	Value float64 `json:"value"`
	// ByRank is the per-rank WER breakdown; absent for PUE.
	ByRank []float64 `json:"by_rank,omitempty"`
	// InputSet is the feature set the answering model was trained on.
	InputSet int `json:"input_set"`
}

// PredictItemV2 is the answer to one /v2 query. ElapsedMS is per query:
// the wall time of that query's model resolution and prediction.
type PredictItemV2 struct {
	Workload    string                    `json:"workload"`
	TREFP       float64                   `json:"trefp"`
	TempC       float64                   `json:"temp_c"`
	VDD         float64                   `json:"vdd"`
	Model       string                    `json:"model"`
	Predictions map[string]TargetResultV2 `json:"predictions"`
	ElapsedMS   float64                   `json:"elapsed_ms"`
}

// PredictResponseV2 is the single-query /v2 response: the item plus the
// serving artifact's identity.
type PredictResponseV2 struct {
	PredictItemV2
	Generation  int64  `json:"generation"`
	Fingerprint string `json:"fingerprint"`
}

// PredictBatchResponseV2 is the batch /v2 response.
type PredictBatchResponseV2 struct {
	Results     []*PredictItemV2 `json:"results"`
	Generation  int64            `json:"generation"`
	Fingerprint string           `json:"fingerprint"`
}

// predictV2 is the /v2 surface: per-query target selection, results
// carrying the serving artifact's identity, and structured errors. Its
// body decodes into the pooled request state, so a warm query reuses the
// previous one's Targets and CE backing arrays.
var predictV2 = predictAPI{werr: httpapi.WriteError, decode: decodeV2, render: renderV2}

func decodeV2(r *http.Request, rq *request) *httpapi.Error {
	b := &rq.body
	if e := httpapi.DecodeBody(r, b); e != nil {
		return e
	}
	if rq.batch = b.Queries != nil; !rq.batch {
		rq.queries = append(rq.queries, b.PredictRequestV2)
	}
	rq.queries = append(rq.queries, b.Queries...)
	return nil
}

func renderV2(w http.ResponseWriter, g *generation, rq *request) {
	if !rq.batch {
		httpapi.WriteJSON(w, http.StatusOK, &PredictResponseV2{
			PredictItemV2: *itemV2(&rq.items[0]),
			Generation:    g.id,
			Fingerprint:   g.fp,
		})
		return
	}
	resp := &PredictBatchResponseV2{
		Results:     make([]*PredictItemV2, len(rq.items)),
		Generation:  g.id,
		Fingerprint: g.fp,
	}
	for i := range rq.items {
		resp.Results[i] = itemV2(&rq.items[i])
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// itemV2 adapts one answered item to the /v2 item shape.
func itemV2(it *item) *PredictItemV2 {
	out := &PredictItemV2{
		Workload:    it.workload,
		TREFP:       it.trefp,
		TempC:       it.tempC,
		VDD:         it.vdd,
		Model:       string(it.kind),
		Predictions: make(map[string]TargetResultV2, len(it.answers)),
		ElapsedMS:   ms(it.elapsed),
	}
	for i := range it.answers {
		a := &it.answers[i]
		out.Predictions[string(a.target)] = TargetResultV2{
			Value:    a.pred.Value,
			ByRank:   a.pred.ByRank,
			InputSet: int(a.pred.Set),
		}
	}
	return out
}
