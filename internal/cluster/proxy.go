package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// The router's own /v2 error codes, beside the shared httpapi codes and the
// backend codes it passes through verbatim.
const (
	codeUpstream        = "upstream"         // every candidate backend failed
	codeFingerprintSkew = "fingerprint_skew" // backends on different artifacts
)

// predictBody accepts either a single query or a batch (the /v2 shape).
type predictBody struct {
	serve.PredictRequestV2
	Queries []serve.PredictRequestV2 `json:"queries,omitempty"`
}

// handlePredict serves POST /v2/predict: split per model owner, proxy with
// retry and hedging, merge, and refuse fingerprint-skewed merges.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	var body predictBody
	if e := httpapi.DecodeBody(r, &body); e != nil {
		httpapi.WriteError(w, e)
		return
	}
	if body.Queries != nil {
		rt.predictBatch(w, r.Context(), body.Queries)
		return
	}
	item, gen, fp, e := rt.routeOne(r.Context(), body.PredictRequestV2)
	if e != nil {
		httpapi.WriteError(w, e)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, &serve.PredictResponseV2{
		PredictItemV2: *item,
		Generation:    gen,
		Fingerprint:   fp,
	})
}

func (rt *Router) predictBatch(w http.ResponseWriter, ctx context.Context, qs []serve.PredictRequestV2) {
	if len(qs) == 0 {
		httpapi.WriteError(w, httpapi.Errf(http.StatusBadRequest, httpapi.CodeEmptyBatch, "queries", "empty batch"))
		return
	}
	if len(qs) > httpapi.MaxBatch {
		httpapi.WriteError(w, httpapi.Errf(http.StatusBadRequest, httpapi.CodeBatchTooLarge, "queries",
			"batch of %d exceeds %d", len(qs), httpapi.MaxBatch))
		return
	}
	items := make([]*serve.PredictItemV2, len(qs))
	gens := make([]int64, len(qs))
	fps := make([]string, len(qs))
	errs := make([]*httpapi.Error, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			items[i], gens[i], fps[i], errs[i] = rt.routeOne(ctx, qs[i])
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			httpapi.WriteError(w, e.At(i))
			return
		}
	}
	// Cross-item consistency: a batch answered while an artifact rollout
	// is mid-flight must not mix old- and new-artifact items.
	gen, fp := gens[0], fps[0]
	for i := 1; i < len(fps); i++ {
		if fps[i] != fp {
			rt.metrics.skewRejects.Inc()
			httpapi.WriteError(w, httpapi.Errf(http.StatusBadGateway, codeFingerprintSkew, "",
				"backends disagree on artifact fingerprint (%s vs %s): refusing to mix generations", fp, fps[i]))
			return
		}
		if gens[i] > gen {
			gen = gens[i]
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, &serve.PredictBatchResponseV2{
		Results:     items,
		Generation:  gen,
		Fingerprint: fp,
	})
}

// group is the slice of one query's targets owned by the same backend.
type group struct {
	q     serve.PredictRequestV2 // the sub-query (Targets narrowed)
	cands []*backendState        // owner first, then failover successors
}

// routingKey is the model-ownership key: the same (target, kind, input
// set) triple the backend's model registry is keyed on. Raw strings pass
// through unparsed (the backend renders the proper validation error; the
// key just has to be deterministic).
func routingKey(target, kind string, set int) string {
	return "m/" + target + "/" + kind + "/" + strconv.Itoa(set)
}

// groups splits one query into per-owner sub-queries: each requested
// target routes by its model key, and targets landing on the same owner
// share one sub-request (the backend trains and answers them together,
// exactly as if the client had asked it directly).
func (rt *Router) groups(q serve.PredictRequestV2) []group {
	kind := q.Model
	if kind == "" {
		kind = string(core.ModelKNN)
	} else if k, err := core.ParseModelKind(kind); err == nil {
		kind = string(k) // canonical spelling so "knn" and "KNN" share an owner
	}
	if len(q.Targets) == 0 {
		// No explicit selection: forward the query whole so the backend
		// applies its own artifact-dependent default selection (the router
		// cannot know which targets a backend's artifact can serve, and
		// expanding to the full catalog here would turn a valid default
		// query into a target_unavailable error). The whole query routes as
		// one group keyed on the empty target, deterministically.
		key := routingKey("", kind, q.InputSet)
		if cands := rt.candidates(key); len(cands) > 0 {
			return []group{{q: q, cands: cands}}
		}
		return nil
	}
	names := q.Targets
	var out []group
	owners := map[*backendState]int{} // owner backend → index into out
	for _, name := range names {
		set := q.InputSet
		if t, err := core.ParseTarget(name); err == nil && set == 0 {
			set = int(t.DefaultInputSet())
		}
		cands := rt.candidates(routingKey(name, kind, set))
		if len(cands) == 0 {
			// Impossible with a non-empty pool, but keep the zero case sane.
			continue
		}
		owner := cands[0]
		if gi, ok := owners[owner]; ok {
			dup := false
			for _, have := range out[gi].q.Targets {
				if have == name {
					dup = true
					break
				}
			}
			if !dup {
				out[gi].q.Targets = append(out[gi].q.Targets, name)
			}
			continue
		}
		owners[owner] = len(out)
		sub := q
		sub.Targets = []string{name}
		out = append(out, group{q: sub, cands: cands})
	}
	return out
}

// subResult is one backend's answer to one group.
type subResult struct {
	item *serve.PredictItemV2
	gen  int64
	fp   string
}

// routeOne answers one query: fan out per owner group, merge the
// per-target answers, and refuse to merge across fingerprints.
func (rt *Router) routeOne(ctx context.Context, q serve.PredictRequestV2) (*serve.PredictItemV2, int64, string, *httpapi.Error) {
	groups := rt.groups(q)
	if len(groups) == 0 {
		return nil, 0, "", httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeUnavailable, "", "no backends")
	}
	if len(groups) == 1 {
		res, e := rt.subCall(ctx, groups[0])
		if e != nil {
			return nil, 0, "", e
		}
		return res.item, res.gen, res.fp, nil
	}
	results := make([]subResult, len(groups))
	errs := make([]*httpapi.Error, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = rt.subCall(ctx, groups[i])
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, 0, "", e
		}
	}
	// Merge the per-owner partial answers into one item. Fingerprints must
	// agree: a query split across backends mid-rollout would otherwise
	// blend predictions from two different artifacts into one response.
	merged := results[0]
	for _, res := range results[1:] {
		if res.fp != merged.fp {
			rt.metrics.skewRejects.Inc()
			return nil, 0, "", httpapi.Errf(http.StatusBadGateway, codeFingerprintSkew, "",
				"backends disagree on artifact fingerprint (%s vs %s): refusing to mix generations",
				merged.fp, res.fp)
		}
		for name, pred := range res.item.Predictions {
			merged.item.Predictions[name] = pred
		}
		// The merged item's elapsed is the slowest sub-answer: the query's
		// critical path, matching what a single backend would report.
		if res.item.ElapsedMS > merged.item.ElapsedMS {
			merged.item.ElapsedMS = res.item.ElapsedMS
		}
		if res.gen > merged.gen {
			merged.gen = res.gen
		}
	}
	return merged.item, merged.gen, merged.fp, nil
}

// subCall proxies one group with bounded retry and hedging: the owner is
// tried first; a transport error or 5xx escalates to the next candidate
// immediately, a response slower than hedgeAfter launches a duplicate to
// the next candidate, and the first success wins. 4xx responses are
// terminal pass-throughs — retrying a validation error is pointless.
func (rt *Router) subCall(ctx context.Context, g group) (subResult, *httpapi.Error) {
	payload, err := json.Marshal(g.q)
	if err != nil {
		return subResult{}, httpapi.Errf(http.StatusInternalServerError, httpapi.CodeInternal, "", "%v", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reap the losing hedge/straggler attempts

	type attemptOut struct {
		res       subResult
		e         *httpapi.Error
		retryable bool
	}
	outs := make(chan attemptOut, len(g.cands))
	next := 0
	launch := func() bool {
		if next >= len(g.cands) {
			return false
		}
		b := g.cands[next]
		next++
		go func() {
			res, e, retryable := rt.attempt(ctx, b, payload)
			outs <- attemptOut{res, e, retryable}
		}()
		return true
	}
	launch()
	inflight := 1

	var hedgeC <-chan time.Time
	if rt.hedgeAfter > 0 {
		t := time.NewTimer(rt.hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr *httpapi.Error
	for inflight > 0 {
		select {
		case out := <-outs:
			inflight--
			if out.e == nil {
				return out.res, nil
			}
			if !out.retryable {
				return subResult{}, out.e
			}
			lastErr = out.e
			if launch() {
				inflight++
				rt.metrics.retries.Inc()
			}
		case <-hedgeC:
			hedgeC = nil // hedge once per sub-call
			if launch() {
				inflight++
				rt.metrics.hedges.Inc()
			}
		case <-ctx.Done():
			return subResult{}, httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeUnavailable, "",
				"request canceled: %v", ctx.Err())
		}
	}
	if lastErr == nil {
		lastErr = httpapi.Errf(http.StatusBadGateway, codeUpstream, "", "all backends failed")
	}
	return subResult{}, lastErr
}

// attempt proxies one group to one backend. The bool reports whether a
// failure is retryable on another backend (transport errors and 5xx: the
// backend, not the query, is at fault).
func (rt *Router) attempt(parent context.Context, b *backendState, payload []byte) (subResult, *httpapi.Error, bool) {
	ctx := parent
	if rt.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, rt.reqTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		b.addr+"/v2/predict", bytes.NewReader(payload))
	if err != nil {
		return subResult{}, httpapi.Errf(http.StatusInternalServerError, httpapi.CodeInternal, "", "%v", err), false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		if parent.Err() != nil {
			// The sub-call was canceled from above — a competing hedge won,
			// or the client went away. The backend is not at fault, so this
			// must not feed the ejection streak (a hedge-losing backend
			// would otherwise be ejected for the crime of being slower
			// once).
			return subResult{}, httpapi.Errf(http.StatusServiceUnavailable, httpapi.CodeUnavailable, "",
				"%s: %v", b.addr, err), false
		}
		// Transport failure: the backend never answered. Feed the ejection
		// streak so a dead backend stops being anyone's owner quickly, even
		// between probes.
		b.subErr.Inc()
		if b.noteFailure(err, rt.failAfter) {
			rt.metrics.ejections.Inc()
			rt.logf("backend %s ejected (traffic): %v", b.addr, err)
		}
		return subResult{}, httpapi.Errf(http.StatusBadGateway, codeUpstream, "", "%s: %v", b.addr, err), true
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, httpapi.MaxBodyBytes+1))
	if err != nil {
		b.subErr.Inc()
		return subResult{}, httpapi.Errf(http.StatusBadGateway, codeUpstream, "", "%s: %v", b.addr, err), true
	}
	// The backend answered: whatever the status, it is alive.
	if b.noteSuccess() {
		rt.metrics.readmissions.Inc()
		rt.logf("backend %s re-admitted (traffic)", b.addr)
	}
	if resp.StatusCode == http.StatusOK {
		var out serve.PredictResponseV2
		if err := json.Unmarshal(data, &out); err != nil {
			b.subErr.Inc()
			return subResult{}, httpapi.Errf(http.StatusBadGateway, codeUpstream, "",
				"%s: malformed response: %v", b.addr, err), true
		}
		b.subOK.Inc()
		return subResult{item: &out.PredictItemV2, gen: out.Generation, fp: out.Fingerprint}, nil, false
	}
	// Structured backend errors pass through verbatim; 5xx are retryable.
	var werr struct {
		Error struct {
			Code    string `json:"code"`
			Field   string `json:"field"`
			Message string `json:"message"`
		} `json:"error"`
	}
	retryable := resp.StatusCode >= 500
	if retryable {
		b.subErr.Inc()
	} else {
		b.subOK.Inc()
	}
	if err := json.Unmarshal(data, &werr); err == nil && werr.Error.Code != "" {
		return subResult{}, &httpapi.Error{
			Status: resp.StatusCode,
			Code:   werr.Error.Code,
			Field:  werr.Error.Field,
			Msg:    werr.Error.Message,
		}, retryable
	}
	return subResult{}, httpapi.Errf(http.StatusBadGateway, codeUpstream, "",
		"%s: %s: %.200s", b.addr, resp.Status, data), retryable
}
