// Package serve is the deployment layer of the reproduction: a long-running
// prediction service over the trained workload-aware DRAM error model. The
// paper's deliverable is a model that answers WER/PUE queries "within
// 300 ms" from a periodically-updated artifact (the DFault model); this
// package serves exactly that from a saved campaign dataset
// (core.LoadDataset) over an HTTP JSON API:
//
//	POST /v2/predict   typed targets, structured errors (see API.md)
//	GET  /v2/stats     per-(target, kind, input set) serving counters
//	POST /v1/predict   the legacy surface: always computes both targets
//	GET  /v1/workloads the servable benchmark catalog
//	GET  /v1/models    model kinds, input sets, targets, trained entries
//	POST /v1/reload    swap in a refreshed dataset artifact in place
//	GET  /healthz      liveness, dataset shape, serving generation
//	GET  /metrics      request/cache/model/reload counters and histograms
//
// Both predict surfaces run one handler, handlePredict: decode, pin the
// serving generation, resolve and predict every query over the unified
// core.Predictor API, render, recycle. A surface contributes only its
// decode, its render and its error writer (predictAPI): /v1 always
// requests the wer/pue pair and renders the legacy wire format (pinned
// byte-for-byte by golden tests), while /v2 takes a per-query target
// selection — a PUE-only query never trains or waits for a WER model,
// because the model registry is keyed on the full (target, kind, input
// set) triple — and reports failures as machine-readable
// {code, field, message} errors. Everything one predict call holds — the
// decoded body, one item per query, one answer per target — is a single
// pooled request, recycled once after the response is written, so a warm
// query reuses the previous one's storage. Method and content-type
// enforcement is uniform across every endpoint (internal/httpapi, shared
// with the cluster router): wrong method is 405 with Allow set, non-JSON
// POST content is 415.
//
// Two caches keep the warm path far under the 300 ms budget while the cold
// path stays correct under concurrency; a warm query is a profile lookup, a
// registry lookup and one Predict call per requested target:
//
//   - a model registry trains each (target, kind, input set) predictor
//     once through the core.Train factory, singleflight-style: concurrent
//     first requests block on one fit, and a failed fit is never cached —
//     the entry clears so the next request retries instead of inheriting a
//     transient error;
//   - a profile cache keyed by (workload, size, seed) makes repeat queries
//     skip the expensive profiling pass (same non-sticky error handling).
//
// The paper's model is "retrained periodically" from fresh characterization
// data, so the dataset and everything derived from it (registry, profile
// cache) live in a generation behind an atomic pointer: Reload builds a new
// generation from a refreshed artifact and swaps it in without waiting,
// while in-flight queries finish on the generation they started with (see
// generation.go). A content fingerprint persisted in the artifact makes
// reloading an unchanged artifact a no-op.
//
// Shutdown is graceful: Close cancels the server's context (threaded into
// every engine dispatch), wakes every request waiting on another's cold
// fill, and makes new requests fail fast before starting a cold profile
// build or model fit.
package serve

import (
	"context"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Quick profiles query workloads at test size instead of SizeProfile.
	// It must match how the dataset was built (dramtrain's -quick), so
	// query-time features are commensurate with the training rows.
	Quick bool
	// Seed keys the profiling passes.
	Seed uint64
	// Workers bounds the engine parallelism of training and of profile
	// resolution fan-outs (batch bodies, ingest retrains); 0 means
	// GOMAXPROCS.
	Workers int
	// ArtifactPath, when set, is the dataset artifact backing the server;
	// POST /v1/reload with an empty body (and cmd/dramserve's SIGHUP and
	// -reload-interval) reload from it.
	ArtifactPath string
	// Context, when set, is the base context; its cancellation stops the
	// server like Close does.
	Context context.Context
	// Ingest, when set, enables the streaming-ingest pipeline: POST
	// /v2/ingest accepts telemetry rows into a bounded queue, a drift
	// detector scores them against the serving artifact's training
	// distribution, and drift/row-count triggers (or POST /v2/retrain)
	// rebuild the dataset and swap a new generation in place. Nil leaves
	// the ingest endpoints registered but answering ingest_disabled.
	Ingest *ingest.Config
}

// Server answers prediction queries from the current serving generation: a
// loaded campaign dataset plus the models and profiles derived from it.
// Reload swaps generations atomically; see generation.go.
type Server struct {
	workers int
	// optSize/optSeed are the startup profiling settings, used for
	// datasets that do not record their own build settings.
	optSize workload.Size
	optSeed uint64

	metrics metrics

	// gen is the current serving generation. reloadMu serializes swaps
	// (the pointer itself is safe to read lock-free).
	gen          atomic.Pointer[generation]
	reloadMu     sync.Mutex
	artifactPath string

	// ingest is the streaming-ingest pipeline, nil when the server runs
	// without one; lastRetrain records the most recent ingest-driven swap
	// for POST /v2/retrain responses.
	ingest      *ingest.Pipeline
	lastRetrain atomic.Pointer[ReloadResult]

	ctx       context.Context
	cancel    context.CancelFunc
	stop      chan struct{}
	closeOnce sync.Once
	start     time.Time

	// Fill seams, overridable in tests to inject failures: production
	// wiring is core.Train / profile.BuildAt.
	train        func(*core.Dataset, core.Target, core.ModelKind, core.InputSet, int) (core.Predictor, error)
	buildProfile func(workload.Spec, workload.Size, uint64) (*profile.Result, error)
}

// New builds a Server over the dataset (serving generation 1). The caller
// must Close it.
func New(ds *core.Dataset, opts Options) *Server {
	base := opts.Context
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	size := workload.SizeProfile
	if opts.Quick {
		size = workload.SizeTest
	}
	s := &Server{
		workers:      opts.Workers,
		optSize:      size,
		optSeed:      opts.Seed,
		artifactPath: opts.ArtifactPath,
		ctx:          ctx,
		cancel:       cancel,
		stop:         make(chan struct{}),
		start:        time.Now(),
		train:        core.Train,
		buildProfile: profile.BuildAt,
	}
	g := s.newGeneration(1, ds)
	s.gen.Store(g)
	if opts.Ingest != nil {
		// The drift baseline is the artifact's own training distribution;
		// retrains adopt the appended dataset's summary as the next one.
		s.ingest = ingest.New(*opts.Ingest, ds.TelemetrySummary(), s.retrainWith)
	}
	context.AfterFunc(ctx, func() { s.Close() })
	return s
}

// Close stops the server: requests waiting on another request's cold fill
// return errClosed, in-flight engine dispatch is canceled, and new
// requests fail fast before paying for profiling or training (an
// already-running model fit completes, as an in-flight HTTP request
// would). Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		close(s.stop)
		if s.ingest != nil {
			s.ingest.Close()
		}
	})
	return nil
}

// closedErr fails fast once the server is closed, so post-shutdown
// requests cannot start expensive cold fills.
func (s *Server) closedErr() error {
	select {
	case <-s.stop:
		return errClosed
	default:
		return nil
	}
}

// Handler returns the server's HTTP API. Every endpoint goes through the
// same method/content-type enforcement; only the error wire format differs
// between the /v1 and /v2 surfaces.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(path, method string, werr httpapi.ErrWriter, h http.HandlerFunc) {
		mux.HandleFunc(path, s.metrics.requests.Counted(path, httpapi.Endpoint(method, werr, h)))
	}
	route("/v1/predict", http.MethodPost, predictV1.werr, s.handlePredict(predictV1))
	route("/v2/predict", http.MethodPost, predictV2.werr, s.handlePredict(predictV2))
	route("/v2/stats", http.MethodGet, httpapi.WriteError, s.handleStatsV2)
	route("/v2/ingest", http.MethodPost, httpapi.WriteError, s.handleIngestV2)
	route("/v2/retrain", http.MethodPost, httpapi.WriteError, s.handleRetrainV2)
	route("/v1/workloads", http.MethodGet, writeErrorV1, s.handleWorkloads)
	route("/v1/models", http.MethodGet, writeErrorV1, s.handleModels)
	route("/v1/reload", http.MethodPost, writeErrorV1, s.handleReload)
	route("/healthz", http.MethodGet, writeErrorV1, s.handleHealthz)
	route("/metrics", http.MethodGet, writeErrorV1, httpapi.MetricsHandler(s.renderMetrics))
	return mux
}

// numTargets is the registry size: the most targets one query can request
// (every registered target, deduplicated). Each pooled item sizes its
// answers to it, so a warm query allocates nothing regardless of how many
// targets are registered.
var numTargets = len(core.Targets())

// maxPooledQueries bounds the request states the pool keeps: a state that
// grew past a batch this large is dropped rather than recycled, so one
// outsized body cannot pin its storage for the server's lifetime.
const maxPooledQueries = 64

// request is the pooled state of one predict call, from decode to the
// written response: the decoded /v2 body, the queries in /v2 form and one
// item per query. It is recycled once, after the response is written, so
// queries and items may alias the body (an item's ce is its query's CE
// window): the whole state lives and dies together.
type request struct {
	// body is the /v2 decode target; encoding/json decodes into its
	// retained Targets and CE capacity.
	body predictBodyV2
	// batch is set by a body with a "queries" key, even an empty one.
	batch   bool
	queries []PredictRequestV2
	items   []item
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

// putRequest recycles rq, or drops it once it has grown past
// maxPooledQueries.
func putRequest(rq *request) {
	if cap(rq.queries) > maxPooledQueries || cap(rq.items) > maxPooledQueries {
		return
	}
	rq.reset()
	requestPool.Put(rq)
}

// reset clears rq for reuse, keeping its backing arrays. The rules are
// subtle: encoding/json leaves fields absent from a document at their
// pre-decode values and reuses array elements when decoding into existing
// capacity, overwriting only the fields present. So every element is
// cleared to full capacity — a sparse CE event like {"t":1} would
// otherwise inherit the previous request's DRAM coordinates — and
// body.Queries returns to nil, not length zero, because nil is how a
// single query is told apart from an explicit empty batch. Clearing also
// drops every reference a pooled state could pin: request strings, a
// retired generation's features and models, ByRank storage and errors.
func (rq *request) reset() {
	b := &rq.body
	targets, ce := b.Targets[:0], b.CE[:0]
	clear(targets[:cap(targets)])
	clear(ce[:cap(ce)])
	clear(b.Queries) // batch elements own their own Targets/CE slices
	*b = predictBodyV2{PredictRequestV2: PredictRequestV2{Targets: targets, CE: ce}}
	clear(rq.queries[:cap(rq.queries)])
	rq.queries = rq.queries[:0]
	items := rq.items[:cap(rq.items)]
	for i := range items {
		answers := items[i].answers[:0]
		clear(answers[:cap(answers)])
		items[i] = item{answers: answers}
	}
	rq.items = items[:0]
	rq.batch = false
}

// item is one query of a request: its validated inputs bound to the
// workload's feature vector, and one answer per requested target. resolve
// fills the inputs and predictOne the answers, both in place.
type item struct {
	workload string
	trefp    float64
	tempC    float64
	vdd      float64
	kind     core.ModelKind
	// set is the explicitly requested input set, 0 meaning each target's
	// published default.
	set   core.InputSet
	feats []float64
	ce    []profile.CEEvent
	// answers are the requested targets in request order, deduplicated;
	// the backing array (cap numTargets) is pooled with the request.
	answers []answer
	// elapsed is the wall time of this query's model resolution and
	// prediction.
	elapsed time.Duration
}

// answer is one requested target of an item: the model answering it, the
// model's serving counters, and the prediction or its failure.
type answer struct {
	target core.Target
	mv     modelVal
	stat   *modelStat
	pred   core.Prediction
	err    error
}

// setFor resolves the input set serving one target.
func (it *item) setFor(t core.Target) core.InputSet {
	if it.set != 0 {
		return it.set
	}
	return t.DefaultInputSet()
}

// predictAPI is one predict surface's wire format: how a body decodes into
// a request's queries, how answered items render, and how errors are
// written. Everything in between is handlePredict's.
type predictAPI struct {
	werr   httpapi.ErrWriter
	decode func(*http.Request, *request) *httpapi.Error
	render func(http.ResponseWriter, *generation, *request)
}

// handlePredict is the one predict path, behind both /v1/predict and
// /v2/predict: decode, pin the serving generation, resolve and predict
// every query, render, then recycle the request state.
func (s *Server) handlePredict(api predictAPI) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rq := requestPool.Get().(*request)
		defer putRequest(rq)
		s.servePredict(api, w, r, rq)
	}
}

// servePredict answers one predict request into the state rq; the caller
// recycles rq after it returns.
func (s *Server) servePredict(api predictAPI, w http.ResponseWriter, r *http.Request, rq *request) {
	start := time.Now()
	if e := api.decode(r, rq); e != nil {
		api.werr(w, e)
		return
	}
	defer func() { s.metrics.predictSeconds.Observe(time.Since(start)) }()

	// Pin the serving generation for the whole request: a reload swapping
	// in a new dataset mid-request must not mix state.
	g, err := s.acquire()
	if err != nil {
		api.werr(w, servingErr(err))
		return
	}
	if e := s.answer(g, rq); e != nil {
		api.werr(w, e)
		return
	}
	api.render(w, g, rq)
}

// answer resolves and predicts every query of rq in place. A batch is
// all-or-nothing (the response always has one result per query) and its
// failure is located at the failing query. Batch resolution fans out so a
// cold batch naming several unprofiled workloads pays for the slowest
// profile build, not their sum; the queries then predict concurrently.
func (s *Server) answer(g *generation, rq *request) *httpapi.Error {
	n := len(rq.queries)
	if rq.batch && n == 0 {
		return httpapi.Errf(http.StatusBadRequest, httpapi.CodeEmptyBatch, "queries", "empty batch")
	}
	if n > httpapi.MaxBatch {
		return httpapi.Errf(http.StatusBadRequest, httpapi.CodeBatchTooLarge, "queries",
			"batch of %d exceeds %d", n, httpapi.MaxBatch)
	}
	if cap(rq.items) < n {
		rq.items = make([]item, n)
	}
	rq.items = rq.items[:n]
	if !rq.batch {
		if e := s.resolve(g, &rq.queries[0], &rq.items[0]); e != nil {
			return e
		}
		return s.predictOne(g, &rq.items[0])
	}
	errs, err := engine.Map(n, func(i int) (*httpapi.Error, error) {
		return s.resolve(g, &rq.queries[i], &rq.items[i]), nil
	}, engine.Options{Workers: s.workers, Context: s.ctx})
	if err != nil {
		// Only server shutdown cancels the resolve fan-out (per-query
		// failures travel in errs); errs may hold skipped entries, so
		// bail before reading them.
		return servingErr(err)
	}
	for i, e := range errs {
		if e != nil {
			return e.At(i)
		}
	}
	var wg sync.WaitGroup
	for i := range rq.items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.predictOne(g, &rq.items[i])
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return e.At(i)
		}
	}
	return nil
}

// resolve validates one query and fills it in with its inputs on
// generation g: the workload's profile features and the requested
// targets.
func (s *Server) resolve(g *generation, q *PredictRequestV2, it *item) *httpapi.Error {
	spec, err := workload.FindSpec(q.Workload)
	if err != nil {
		return httpapi.Errf(http.StatusNotFound, codeUnknownWorkload, "workload", "%v", err)
	}
	if q.TREFP <= 0 || math.IsNaN(q.TREFP) || math.IsInf(q.TREFP, 0) {
		return httpapi.Errf(http.StatusBadRequest, codeOutOfRange, "trefp", "trefp %v out of range", q.TREFP)
	}
	if math.IsNaN(q.TempC) || math.IsInf(q.TempC, 0) {
		return httpapi.Errf(http.StatusBadRequest, codeOutOfRange, "temp_c", "temp_c %v out of range", q.TempC)
	}
	vdd := q.VDD
	if vdd == 0 {
		vdd = dram.MinVDD
	}
	if vdd < 0 || math.IsNaN(vdd) || math.IsInf(vdd, 0) {
		return httpapi.Errf(http.StatusBadRequest, codeOutOfRange, "vdd", "vdd %v out of range", vdd)
	}
	model := q.Model
	if model == "" {
		model = string(core.ModelKNN)
	}
	kind, err := core.ParseModelKind(model)
	if err != nil {
		return httpapi.Errf(http.StatusBadRequest, codeUnknownModel, "model", "unknown model %q", model)
	}
	var set core.InputSet
	switch q.InputSet {
	case 0:
		// Each target's published default (set 1 for WER, set 2 for PUE).
	case 1, 2, 3:
		set = core.InputSet(q.InputSet)
	default:
		return httpapi.Errf(http.StatusBadRequest, codeOutOfRange, "input_set", "input_set %d out of range", q.InputSet)
	}
	if err := profile.ValidateCEEvents(q.CE); err != nil {
		return httpapi.Errf(http.StatusBadRequest, codeBadTelemetry, "ce", "%v", err)
	}
	if it.answers == nil {
		it.answers = make([]answer, 0, numTargets)
	}
	answers := it.answers[:0]
	if len(q.Targets) == 0 {
		// The generation's default selection: every target its artifact can
		// serve, with telemetry targets joining only when the query actually
		// carries CE events — a plain operating-point query against a
		// telemetry-bearing artifact still answers exactly wer+pue.
		for _, t := range g.defaults {
			answers = append(answers, answer{target: t})
		}
		if len(q.CE) > 0 {
			for _, t := range g.telemetryTargets {
				answers = append(answers, answer{target: t})
			}
		}
	} else {
	names:
		for _, name := range q.Targets {
			t, err := core.ParseTarget(name)
			if err != nil {
				return httpapi.Errf(http.StatusBadRequest, codeUnknownTarget, "targets", "unknown target %q", name)
			}
			if !g.available[t] {
				return httpapi.Errf(http.StatusBadRequest, codeTargetUnavailable, "targets",
					"target %q has no training rows in the serving artifact", name)
			}
			for _, have := range answers {
				if have.target == t {
					continue names
				}
			}
			answers = append(answers, answer{target: t})
		}
	}
	prof, err := s.profileFor(g, spec)
	if err != nil {
		return servingErr(err)
	}
	it.workload = spec.Label
	it.trefp, it.tempC, it.vdd = q.TREFP, q.TempC, vdd
	it.kind, it.set = kind, set
	it.feats = prof.Features
	it.ce = q.CE
	it.answers = answers
	return nil
}

// predictOne answers one resolved item on generation g. Only the requested
// targets' models are resolved — a PUE-only query never trains or waits
// for a WER model.
func (s *Server) predictOne(g *generation, it *item) *httpapi.Error {
	start := time.Now()
	for i := range it.answers {
		a := &it.answers[i]
		a.stat = s.metrics.models.At(modelKey{a.target, it.kind, it.setFor(a.target)})
		mv, err := s.model(g, a.target, it.kind, it.setFor(a.target))
		if err != nil {
			a.stat.errors.Inc()
			return servingErr(err)
		}
		a.mv = mv
	}
	// The targets are independent, so they predict concurrently. The
	// first runs on this goroutine — the common single-target query
	// spawns nothing.
	var wg sync.WaitGroup
	for i := 1; i < len(it.answers); i++ {
		wg.Add(1)
		go func(a *answer) {
			defer wg.Done()
			it.predict(a)
		}(&it.answers[i])
	}
	it.predict(&it.answers[0])
	wg.Wait()
	for i := range it.answers {
		if err := it.answers[i].err; err != nil {
			return servingErr(err)
		}
	}
	it.elapsed = time.Since(start)
	return nil
}

// predict runs one target's model on the item's inputs, recording the
// per-model serving accounting: one answered query per target with the
// predict call it paid (/v2/stats; the load generator cross-checks these).
func (it *item) predict(a *answer) {
	start := time.Now()
	pred, err := a.mv.pred.Predict(core.Query{
		Target: a.target, Features: it.feats, TREFP: it.trefp, VDD: it.vdd,
		TempC: it.tempC, Rank: core.RankDevice, CE: it.ce,
	})
	if err != nil {
		a.stat.errors.Inc()
		a.err = err
		return
	}
	a.stat.queries.Inc()
	a.stat.latency.Observe(time.Since(start))
	a.pred = pred
}

// ms renders a duration in the wire format's fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// PredictRequest is one /v1 prediction query.
type PredictRequest struct {
	Workload string  `json:"workload"`
	TREFP    float64 `json:"trefp"`
	TempC    float64 `json:"temp_c"`
	// VDD defaults to the campaign voltage (dram.MinVDD) when zero.
	VDD float64 `json:"vdd,omitempty"`
	// Model defaults to the paper's published KNN variant.
	Model string `json:"model,omitempty"`
	// InputSet (1–3) selects the feature set for both targets; zero means
	// the paper's best per target (set 1 for WER, set 2 for PUE).
	InputSet int `json:"input_set,omitempty"`
}

// v1Targets is the selection of every /v1 query, in the order itemV1
// reads the answers. The legacy surface pins the original target pair
// explicitly — its wire format has exactly the wer/pue fields, whatever
// else the registry has since grown.
var v1Targets = []string{string(core.TargetWER), string(core.TargetPUE)}

// v2 converts the v1 wire form to the /v2 query it stands for.
func (r PredictRequest) v2() PredictRequestV2 {
	return PredictRequestV2{
		Workload: r.Workload, TREFP: r.TREFP, TempC: r.TempC, VDD: r.VDD,
		Model: r.Model, InputSet: r.InputSet, Targets: v1Targets,
	}
}

// PredictResponse is the /v1 answer to one query. ElapsedMS is per query:
// the wall time of that query's model resolution and prediction.
type PredictResponse struct {
	Workload  string    `json:"workload"`
	TREFP     float64   `json:"trefp"`
	TempC     float64   `json:"temp_c"`
	VDD       float64   `json:"vdd"`
	Model     string    `json:"model"`
	WERMean   float64   `json:"wer_mean"`
	WERByRank []float64 `json:"wer_by_rank"`
	PUE       float64   `json:"pue"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// predictBody accepts either a single query or a batch.
type predictBody struct {
	PredictRequest
	Queries []PredictRequest `json:"queries,omitempty"`
}

// predictV1 is the legacy surface: it always computes both targets and
// renders the pinned v1 wire format and error shape.
var predictV1 = predictAPI{werr: writeErrorV1, decode: decodeV1, render: renderV1}

func decodeV1(r *http.Request, rq *request) *httpapi.Error {
	var body predictBody
	if e := httpapi.DecodeBody(r, &body); e != nil {
		return e
	}
	if rq.batch = body.Queries != nil; !rq.batch {
		rq.queries = append(rq.queries, body.PredictRequest.v2())
	}
	for _, q := range body.Queries {
		rq.queries = append(rq.queries, q.v2())
	}
	return nil
}

func renderV1(w http.ResponseWriter, _ *generation, rq *request) {
	if !rq.batch {
		httpapi.WriteJSON(w, http.StatusOK, itemV1(&rq.items[0]))
		return
	}
	results := make([]*PredictResponse, len(rq.items))
	for i := range rq.items {
		results[i] = itemV1(&rq.items[i])
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"results": results})
}

// itemV1 adapts one answered item to the legacy wire format.
func itemV1(it *item) *PredictResponse {
	wer, pue := it.answers[0].pred, it.answers[1].pred // v1Targets order
	return &PredictResponse{
		Workload:  it.workload,
		TREFP:     it.trefp,
		TempC:     it.tempC,
		VDD:       it.vdd,
		Model:     string(it.kind),
		WERMean:   wer.Value,
		WERByRank: wer.ByRank,
		PUE:       pue.Value,
		ElapsedMS: ms(it.elapsed),
	}
}

// handleReload reloads the server's configured artifact. The endpoint
// deliberately takes no path: letting an unauthenticated HTTP client name
// an arbitrary server-side file would allow filesystem probing and model
// substitution. Operators choose the artifact at startup (-load); the
// request body must be empty or an empty JSON object.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if e := httpapi.DecodeEmpty(r); e != nil {
		writeErrorV1(w, e)
		return
	}
	if s.artifactPath == "" {
		writeErrorV1(w, httpapi.Errf(http.StatusBadRequest, codeNotArtifactBacked, "",
			"not artifact-backed: the server was started without -load"))
		return
	}
	res, err := s.Reload(s.artifactPath)
	if err != nil {
		e := servingErr(err)
		e.Msg = "reload: " + e.Msg
		writeErrorV1(w, e)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Label    string `json:"label"`
		Threads  int    `json:"threads"`
		Profiled bool   `json:"profiled"`
		InCorpus bool   `json:"in_corpus"`
	}
	g := s.gen.Load()
	profiled := s.profiledLabels(g)
	inCorpus := map[string]bool{}
	for _, l := range g.ds.Workloads() {
		inCorpus[l] = true
	}
	var out []entry
	for _, spec := range workload.ExtendedSet() {
		out = append(out, entry{spec.Label, spec.Threads, profiled[spec.Label], inCorpus[spec.Label]})
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	kinds := core.ModelKinds()
	sets := make([]int, 0, 3)
	for _, set := range core.InputSets() {
		sets = append(sets, int(set))
	}
	targets := make([]string, 0, numTargets)
	for _, t := range core.Targets() {
		targets = append(targets, string(t))
	}
	trained := s.trained(s.gen.Load())
	if trained == nil {
		trained = []trainedModel{}
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"kinds":      kinds,
		"input_sets": sets,
		"targets":    targets,
		"trained":    trained,
	})
}

// HealthResponse is the GET /healthz body. It is exported because it is
// the cross-node probing contract: the cluster router (internal/cluster,
// cmd/dramrouter) decodes exactly this struct to health-check backends and
// to detect artifact-fingerprint skew across a sharded pool.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Generation and Fingerprint identify the serving artifact; the
	// fingerprint is the authoritative cross-node identity (generation
	// counters are per-process).
	Generation  int64  `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	WERRows     int    `json:"wer_rows"`
	PUERows     int    `json:"pue_rows"`
	UERows      int    `json:"uer_rows"`
	Workloads   int    `json:"workloads"`
	// Targets advertises the prediction targets this artifact can serve,
	// in catalog order. Clients (dramfleet's "all" selection) resolve
	// target availability from here instead of hardcoding the catalog.
	Targets []string `json:"targets"`
}

// Identity reports the current serving generation and artifact
// fingerprint — the same pair /healthz and every /v2 response surface.
func (s *Server) Identity() (generation int64, fingerprint string) {
	g := s.gen.Load()
	return g.id, g.fp
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.gen.Load()
	targets := make([]string, 0, len(g.available))
	for _, t := range core.Targets() {
		if g.available[t] {
			targets = append(targets, string(t))
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, &HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Generation:    g.id,
		Fingerprint:   g.fp,
		WERRows:       len(g.ds.WER),
		PUERows:       len(g.ds.PUE),
		UERows:        len(g.ds.UER),
		Workloads:     len(g.ds.Workloads()),
		Targets:       targets,
	})
}
