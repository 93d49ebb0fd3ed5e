package serve

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/profile"
	"repro/internal/workload"
)

// FuzzDecodePredictV2 drives arbitrary bytes through the strict /v2
// request decode and the pooled request-state recycling path. The
// invariants are the ones the zero-allocation hot path depends on: decode
// never panics, and decoding into a recycled request state — one that has
// already absorbed a different request and been reset by putRequest —
// yields exactly the same document and queries as decoding into a fresh
// state. A pool-reset bug (a field surviving put) shows up as a diff here
// long before it corrupts a production prediction.
func FuzzDecodePredictV2(f *testing.F) {
	f.Add([]byte(`{"workload":"backprop","trefp":1.173,"temp_c":45}`))
	f.Add([]byte(`{"workload":"kmeans","trefp":0.618,"temp_c":60,"vdd":1.428,"model":"KNN","input_set":2,"targets":["wer","pue"]}`))
	f.Add([]byte(`{"workload":"nw","trefp":2.283,"temp_c":55,"ce":[{"t":1,"rank":3,"bank":2,"row":7,"col":9}]}`))
	f.Add([]byte(`{"queries":[{"workload":"backprop","trefp":1.173,"temp_c":45},{"workload":"nn","trefp":1.727,"temp_c":50}]}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"backprop","trefp":1e999}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{"workload":"backprop"} trailing`))
	f.Add([]byte(`[1,2,3]`))

	// Sparse events after a fully-populated window: element reuse must
	// not leak the earlier coordinates (the request.reset CE clear).
	f.Add([]byte(`{"workload":"backprop","trefp":1,"temp_c":1,"ce":[{"t":3}]}`))

	// A poison request: decoded into the state first so the pool reset has
	// real state to scrub (non-empty targets, a fully-populated top-level
	// CE window whose elements would leak into sparse follow-up events,
	// and a batch).
	poison := []byte(`{"workload":"srad","trefp":1.1,"temp_c":9,"targets":["wer","pue","ue_risk"],` +
		`"ce":[{"t":1,"rank":1,"bank":2,"row":3,"col":4,"bits":5},{"t":2,"rank":2}],` +
		`"queries":[{"workload":"nn","trefp":1.2,"temp_c":8,"ce":[{"t":1,"rank":7}]}]}`)

	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(rq *request, doc []byte) *httpapi.Error {
			return decodeV2(httptest.NewRequest("POST", "/v2/predict", bytes.NewReader(doc)), rq)
		}
		fresh := new(request)
		freshErr := decode(fresh, data)

		// Dirty a pooled state with the poison document, recycle it, then
		// decode the fuzz document into the recycled state.
		recycled := requestPool.Get().(*request)
		_ = decode(recycled, poison)
		putRequest(recycled)
		recycled = requestPool.Get().(*request)
		defer putRequest(recycled)
		recycledErr := decode(recycled, data)

		if (freshErr == nil) != (recycledErr == nil) {
			t.Fatalf("fresh decode err=%v, recycled decode err=%v", freshErr, recycledErr)
		}
		if freshErr != nil {
			return
		}
		// Normalize the empty-slice-vs-nil difference the pool reset
		// legitimately introduces for Targets, CE and the decoded queries
		// (len 0 either way); body.Queries nil-ness is semantic and must
		// match exactly.
		norm := func(rq *request) {
			if len(rq.queries) == 0 {
				rq.queries = nil
			}
			for i := range rq.queries {
				q := &rq.queries[i]
				if len(q.Targets) == 0 {
					q.Targets = nil
				}
				if len(q.CE) == 0 {
					q.CE = nil
				}
			}
			if len(rq.body.Targets) == 0 {
				rq.body.Targets = nil
			}
			if len(rq.body.CE) == 0 {
				rq.body.CE = nil
			}
		}
		norm(fresh)
		norm(recycled)
		if !reflect.DeepEqual(fresh.body, recycled.body) {
			t.Fatalf("pool reset leaked body state:\nfresh:    %+v\nrecycled: %+v", fresh.body, recycled.body)
		}
		if fresh.batch != recycled.batch || !reflect.DeepEqual(fresh.queries, recycled.queries) {
			t.Fatalf("pool reset leaked query state:\nfresh:    %v %+v\nrecycled: %v %+v",
				fresh.batch, fresh.queries, recycled.batch, recycled.queries)
		}
	})
}

// FuzzIngestRows drives arbitrary bytes through the /v2/ingest decode
// and the per-row validation gate. Invariants: neither step panics,
// validation is deterministic, and every row that passes the gate
// actually satisfies the contract the training pipeline assumes — a
// positive finite TREFP, finite temperature, a resolvable workload
// label, and a CE window profile.ValidateCEEvents accepts.
func FuzzIngestRows(f *testing.F) {
	f.Add([]byte(`{"rows":[{"server":"s0","workload":"backprop","trefp":1.173,"temp_c":45,"vdd":1.428,"ue":0,"wer":1e-9,"pue":0.01}]}`))
	f.Add([]byte(`{"rows":[{"server":"s1","workload":"nn","trefp":0.618,"temp_c":50,"ce":[{"t":1,"rank":2,"bank":1,"row":3,"col":4}],"ue":1}]}`))
	f.Add([]byte(`{"rows":[]}`))
	f.Add([]byte(`{"rows":[{"trefp":-1}]}`))
	f.Add([]byte(`{"rows":[{"workload":"doom","trefp":1,"temp_c":1}]}`))
	f.Add([]byte(`{"rows":[{"trefp":1,"temp_c":1,"ce":[{"t":2},{"t":1}]}]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var body IngestRequestV2
		if e := httpapi.DecodeBody(httptest.NewRequest("POST", "/v2/ingest", bytes.NewReader(data)), &body); e != nil {
			return
		}
		for i := range body.Rows {
			row := &body.Rows[i]
			field, err := row.Validate()
			field2, err2 := row.Validate()
			if field != field2 || (err == nil) != (err2 == nil) {
				t.Fatalf("row %d: Validate not deterministic: (%q, %v) vs (%q, %v)",
					i, field, err, field2, err2)
			}
			if err != nil {
				continue
			}
			if !(row.TREFP > 0) {
				t.Fatalf("row %d passed validation with trefp %v", i, row.TREFP)
			}
			if err := profile.ValidateCEEvents(row.CE); err != nil {
				t.Fatalf("row %d passed validation with bad CE window: %v", i, err)
			}
			if row.Workload != "" {
				// The handler's registry check, applied after Validate.
				_, _ = workload.FindSpec(row.Workload)
			}
		}
	})
}
