package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cliflag"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/workload"
)

// mode selects the serving topology of a workload.
type mode int

const (
	modeDirect mode = iota // one serve.Server
	modeRouted             // cluster.Router over two serve.Servers
	modeIngest             // one ingest-enabled serve.Server
)

// requestTargets is what every predict asks for.
var requestTargets = []string{string(core.TargetWER), string(core.TargetPUE), string(core.TargetUERisk)}

// stack is one booted serving topology: HTTP listeners on loopback in
// this process.
type stack struct {
	servers  []*serve.Server
	backends []string // backend base URLs
	names    []string // the backends' base URLs as the router knows them
	router   *cluster.Router
	url      string // what clients hit: the router or the only backend
	artifact string // the -load path every backend serves and reloads
	https    []*http.Server
	wg       sync.WaitGroup
}

// listen serves h on a loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := cliflag.HTTPServer("", h)
	st.https = append(st.https, hs)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("listener %s: %v", ln.Addr(), err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, the router and the servers, and waits for
// every serving goroutine it started.
func (st *stack) close() {
	for _, hs := range st.https {
		hs.Close()
	}
	st.wg.Wait()
	if st.router != nil {
		st.router.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
}

// boot loads the artifact into the topology's servers and starts them.
// It returns the LoadDataset durations.
func (r *runner) boot(m mode, artifact string) (*stack, []time.Duration, error) {
	st := &stack{artifact: artifact}
	n := 1
	if m == modeRouted {
		n = 2
	}
	var loads []time.Duration
	var fp string
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ds, err := core.LoadDataset(artifact)
		if err != nil {
			st.close()
			return nil, nil, err
		}
		loads = append(loads, time.Since(t0))
		r.tracer.direct("core.load", t0, t0.Add(loads[i]))
		fp = ds.Fingerprint()
		opts := serve.Options{
			Quick:        ds.Build.Quick(),
			Seed:         ds.Build.Seed,
			Workers:      nproc(),
			ArtifactPath: artifact,
		}
		if m == modeIngest {
			// Both automatic triggers off: the benchmark's own POST
			// /v2/retrain cadence is the only retrain.
			opts.Ingest = &ingest.Config{Capacity: 4096}
		}
		s := serve.New(ds, opts)
		st.servers = append(st.servers, s)
		url, err := st.listen(r.tracer.wrapServe(s.Handler()))
		if err != nil {
			st.close()
			return nil, nil, err
		}
		st.backends = append(st.backends, url)
	}
	st.url = st.backends[0]
	if m != modeRouted {
		return st, loads, nil
	}
	// The router places models on its hash ring by backend address. The
	// listeners' ports change from run to run, and with them which
	// backend owns which (target, kind, set): in some runs one backend
	// owned all three targets and a query cost one sub-request, in others
	// two, with 40% more allocations per predict. The router is
	// given fixed names instead, which its transport dials at the ports.
	st.names = make([]string, n)
	ports := map[string]string{}
	for i, url := range st.backends {
		st.names[i] = fmt.Sprintf("http://backend%d.perfbench", i)
		ports[fmt.Sprintf("backend%d.perfbench:80", i)] = strings.TrimPrefix(url, "http://")
	}
	var dialer net.Dialer
	// The same transport settings as the router's default client.
	var tr http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := ports[addr]
			if !ok {
				return nil, fmt.Errorf("router dialed unknown backend %s", addr)
			}
			return dialer.DialContext(ctx, network, real)
		},
	}
	if r.tracer.on {
		// Wrapped to record each proxied attempt.
		tr = &attemptTransport{t: r.tracer, base: tr}
	}
	ropts := cluster.Options{Backends: st.names, Client: &http.Client{Transport: tr}}
	rt, err := cluster.New(ropts)
	if err != nil {
		st.close()
		return nil, nil, err
	}
	st.router = rt
	if st.url, err = st.listen(r.tracer.wrapRouter(rt.Handler())); err != nil {
		st.close()
		return nil, nil, err
	}
	if err := waitRouter(st.url, fp, n); err != nil {
		st.close()
		return nil, nil, err
	}
	return st, loads, nil
}

// waitRouter polls the router's /healthz until every backend is healthy
// and the pool agrees on the artifact fingerprint.
func waitRouter(url, fp string, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var hr cluster.HealthResponse
		if code, err := getJSON(url+"/healthz", &hr); err == nil && code == http.StatusOK &&
			hr.Status == "ok" && hr.Healthy == n && hr.Fingerprint == fp {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("router at %s never became healthy on %s", url, fp)
}

// client issues the benchmark's requests over at most conns connections to
// the host it talks to.
type client struct {
	hc     *http.Client
	url    string
	model  string
	tracer *tracer
}

func newClient(url, model string, conns int, t *tracer) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: 90 * time.Second}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, url: url, model: model, tracer: t}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON POST and decodes a 200 answer into out. layer names
// the client span of the traced run ("" records none); query and due
// annotate it.
func (c *client) post(path string, body []byte, out any, layer string, query int, due time.Time) error {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var s *span
	if layer != "" && c.tracer.active() {
		s = &span{ID: c.tracer.newID(), Layer: layer, Query: query, Due: c.tracer.ns(due)}
		req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
		s.Start = c.tracer.ns(time.Now())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if s != nil {
		s.End = c.tracer.ns(time.Now())
		c.tracer.add(s)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %.200s", path, resp.Status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// answer is one predict's response, kept for the correctness gate.
type answer struct {
	gen   int64
	fp    string
	preds map[string]serve.TargetResultV2
}

// predict sends query q and stores its answer.
func (c *client) predict(q *fleet.Query, due time.Time) (*answer, error) {
	body, err := json.Marshal(serve.PredictRequestV2{
		Workload: q.Workload, TREFP: q.TREFP, TempC: q.TempC, VDD: q.VDD,
		Model: c.model, Targets: requestTargets, CE: q.CE,
	})
	if err != nil {
		return nil, err
	}
	var resp serve.PredictResponseV2
	if err := c.post("/v2/predict", body, &resp, "client", q.Seq, due); err != nil {
		return nil, err
	}
	if len(resp.Predictions) != len(requestTargets) {
		return nil, fmt.Errorf("query %d: %d predictions, want %d", q.Seq, len(resp.Predictions), len(requestTargets))
	}
	return &answer{gen: resp.Generation, fp: resp.Fingerprint, preds: resp.Predictions}, nil
}

// ingestRow reports q's ground truth, as dramfleet -ingest does.
func (c *client) ingestRow(q *fleet.Query, due time.Time) error {
	ue := 0.0
	if q.TruthUE >= 0.5 {
		ue = 1
	}
	wer, pue := q.TruthWER, q.TruthPUE
	body, err := json.Marshal(serve.IngestRequestV2{Rows: []ingest.Row{{
		Server: fmt.Sprintf("server%02d", q.Server), Workload: q.Workload,
		TREFP: q.TREFP, VDD: q.VDD, TempC: q.TempC, CE: q.CE,
		UE: &ue, WER: &wer, PUE: &pue,
	}}})
	if err != nil {
		return err
	}
	var resp serve.IngestResponseV2
	if err := c.post("/v2/ingest", body, &resp, "client.ingest", q.Seq, due); err != nil {
		return err
	}
	if resp.Accepted != 1 {
		return fmt.Errorf("query %d: ingest accepted %d rows", q.Seq, resp.Accepted)
	}
	return nil
}

// getJSON GETs url and decodes the body.
func getJSON(url string, out any) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// scrape reads a Prometheus text exposition into name{labels} → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// sumScrape adds one metric over several expositions.
func sumScrape(ms []map[string]float64, key string) float64 {
	total := 0.0
	for _, m := range ms {
		total += m[key]
	}
	return total
}

// servingRun is the state of one serving workload run.
type servingRun struct {
	*runner
	mode    mode
	kind    core.ModelKind
	setting workloadSetting
	qs      []fleet.Query
	st      *stack
	cl      *client
	answers []*answer
	// datasets maps each fingerprint an answer may carry to its dataset
	// (the seed artifact, then every retrained generation); artifacts
	// holds the raw retrained artifacts until the gate decodes them.
	datasets  map[string]*core.Dataset
	artifacts map[string][]byte
	// retrains holds the client-observed retrain durations.
	retrains []time.Duration
	lastGen  int64
}

// serving runs one of the three serving workloads.
func (r *runner) serving(m mode) error {
	w := r.settings()
	sr := &servingRun{runner: r, mode: m, setting: w, kind: core.ModelKind(w.Model),
		datasets: map[string]*core.Dataset{}, artifacts: map[string][]byte{}}
	if _, err := core.ParseModelKind(w.Model); err != nil {
		return err
	}
	rate, nOpen, nClosed := r.phaseCounts(w)

	// The artifact the campaign code path produces, built and evaluated
	// before any timing of the serving path.
	seedPath := filepath.Join(r.dir, "seed.json.gz")
	ds, err := r.prepare(seedPath, func(ds *core.Dataset) ([]float64, error) {
		// One evaluation of a cheap kind takes milliseconds: repeat it for
		// a third of a second after each build.
		var evals []float64
		for spent := 0.0; spent < 1.0/3; {
			d, err := r.evaluate(ds, sr.kind, nil)
			if err != nil {
				return nil, err
			}
			evals = append(evals, d.Seconds())
			spent += d.Seconds()
		}
		return evals, nil
	})
	if err != nil {
		return err
	}
	sr.datasets[ds.Fingerprint()] = ds

	nTraced := 0
	if r.tracer.on {
		nTraced = nOpen
	}
	total := r.sizes.warm + nOpen + nTraced + nClosed
	if sr.qs, err = r.stream(total); err != nil {
		return err
	}
	sr.answers = make([]*answer, total)

	if err := sr.setups(seedPath); err != nil {
		return err
	}
	defer sr.st.close()
	sr.cl = newClient(sr.st.url, w.Model, r.sizes.inflight, r.tracer)
	defer sr.cl.close()
	sr.lastGen = 1

	// Warm-up, excluded from every latency and throughput figure.
	warm := closedLoop(r.sizes.warm, r.sizes.inflight, sr.op(0))
	if err := warm.firstErr(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	before, err := sr.settled()
	if err != nil {
		return err
	}
	stopProfile := r.startProfile()
	rss := startRSS()
	var startSegment func() error
	if m == modeIngest {
		startSegment = sr.retrain
	}
	win := r.measure(w, r.sizes.warm, nOpen, nClosed, rate, sr.op, startSegment, rss)
	rss.end(r.rep)
	stopProfile()
	r.recordLoad(w, win)
	completed := win.next - r.sizes.warm - win.failed()
	r.rep.set("serve.allocs_per_req", float64(win.mallocs)/float64(nOpen))
	r.rep.set("serve.bytes_per_req", float64(win.bytes)/float64(nOpen))
	if r.tracer.on {
		// The traced phase replays a fresh stretch of the stream at the same
		// rate with every wrapper recording; its p50 against the untraced
		// rounds' is the tracing overhead.
		mid, err := sr.settled()
		if err != nil {
			return err
		}
		r.tracer.setActive(true)
		traced := openLoop(nTraced, rate, r.sizes.inflight, sr.op(win.next))
		r.tracer.setActive(false)
		r.rep.count(len(traced.lat), traced.failed())
		completed += len(traced.lat) - traced.failed()
		r.rep.set("trace.p50_overhead_ms", median(traced.lat)-r.rep.values["client.p50_ms"])
		if m == modeRouted {
			end, err := sr.settled()
			if err != nil {
				return err
			}
			r.tracedSubreqs = sr.subreqs(mid, end)
		}
	}

	after, err := sr.settled()
	if err != nil {
		return err
	}
	sr.checkCounters(before, after, completed)
	sr.recordServeMetrics(before, after, completed)

	if m == modeIngest {
		var rs []float64
		for _, d := range sr.retrains {
			rs = append(rs, d.Seconds())
		}
		r.rep.set("retrain_s", median(rs))
		logf("%d retrains, one opening each closed segment", len(sr.retrains))
		if len(sr.retrains) == 0 {
			r.rep.fail("ingest run did no retrain")
		}
	}
	return sr.gate()
}

// setups boots the topology several times from the artifact on disk to a
// warm answer per workload label; setup_s is the median. The last stack
// serves the run.
func (sr *servingRun) setups(seedPath string) error {
	var times, loads []float64
	for i := 0; i < sr.sizes.setups; i++ {
		artifact := seedPath
		if sr.mode == modeIngest {
			// Retrains rewrite the artifact in place: each set-up starts
			// from its own pristine copy.
			artifact = filepath.Join(sr.dir, fmt.Sprintf("serve%d.json.gz", i))
			if err := copyFile(seedPath, artifact); err != nil {
				return err
			}
		}
		t0 := time.Now()
		st, ld, err := sr.boot(sr.mode, artifact)
		if err != nil {
			return err
		}
		if err := sr.warmLabels(st); err != nil {
			st.close()
			return fmt.Errorf("set-up warm answers: %w", err)
		}
		times = append(times, since(t0))
		for _, d := range ld {
			loads = append(loads, ms(d))
		}
		if i < sr.sizes.setups-1 {
			st.close()
			continue
		}
		sr.st = st
	}
	sr.rep.set("setup_s", median(times))
	sr.rep.set("core.load_ms", median(loads))
	logf("set-up: %d boots, median %.3fs (%v)", len(times), median(times), fmtFloats(times))
	return nil
}

// warmLabels asks for one answer per workload label, covering every cold
// model fit and profile build the stream will need.
func (sr *servingRun) warmLabels(st *stack) error {
	cl := newClient(st.url, sr.setting.Model, sr.sizes.inflight, sr.tracer)
	defer cl.close()
	for _, spec := range workload.ExtendedSet() {
		q := sr.qs[0]
		q.Workload = spec.Label
		if _, err := cl.predict(&q, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// op returns the per-request operation for stream offset first: predict,
// and on the ingest workload the query's ground-truth row.
func (sr *servingRun) op(first int) func(k int, due time.Time) error {
	return func(k int, due time.Time) error {
		i := first + k
		q := &sr.qs[i]
		a, err := sr.cl.predict(q, due)
		if err != nil {
			return err
		}
		sr.answers[i] = a
		if sr.mode != modeIngest {
			return nil
		}
		return sr.cl.ingestRow(q, due)
	}
}

// retrain POSTs /v2/retrain, checks the generation advanced by exactly
// one, and keeps the published artifact for the correctness gate.
func (sr *servingRun) retrain() error {
	t0 := time.Now()
	var resp serve.RetrainResponseV2
	if err := sr.cl.post("/v2/retrain", nil, &resp, "client.retrain", -1, t0); err != nil {
		return err
	}
	sr.retrains = append(sr.retrains, time.Since(t0))
	if !resp.Swapped || resp.Generation != sr.lastGen+1 {
		return fmt.Errorf("retrain moved generation %d to %d (swapped %v), want +1",
			sr.lastGen, resp.Generation, resp.Swapped)
	}
	sr.lastGen = resp.Generation
	// Retrains publish over the -load path: read it before the next one.
	data, err := os.ReadFile(sr.st.artifact)
	if err != nil {
		return err
	}
	sr.artifacts[resp.Fingerprint] = data
	return nil
}

// counters snapshots the servers' and router's accounting.
type counters struct {
	stats  []serve.StatsResponseV2
	serve  []map[string]float64
	router map[string]float64
}

func (sr *servingRun) counters() (*counters, error) {
	c := &counters{}
	for _, url := range sr.st.backends {
		var s serve.StatsResponseV2
		if _, err := getJSON(url+"/v2/stats", &s); err != nil {
			return nil, fmt.Errorf("/v2/stats: %w", err)
		}
		m, err := scrape(url)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %w", err)
		}
		c.stats = append(c.stats, s)
		c.serve = append(c.serve, m)
	}
	if sr.st.router != nil {
		m, err := scrape(sr.st.url)
		if err != nil {
			return nil, fmt.Errorf("router /metrics: %w", err)
		}
		c.router = m
	}
	return c, nil
}

// settled waits until the stack's predict accounting has stopped moving
// and returns that snapshot. A hedged attempt the router abandoned may
// still be answered by its backend after the client has its answer, so a
// snapshot taken right after a phase could miss it; one taken after a
// quiet interval longer than the router's hedge delay does not.
func (sr *servingRun) settled() (*counters, error) {
	prev, err := sr.counters()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 20; i++ {
		time.Sleep(cluster.DefaultHedgeAfter + 50*time.Millisecond)
		cur, err := sr.counters()
		if err != nil {
			return nil, err
		}
		if cur.predicts() == prev.predicts() {
			return cur, nil
		}
		prev = cur
	}
	return nil, errors.New("predict counters did not settle within 20 quiet intervals")
}

// predicts renders every predict counter of a snapshot, for comparison.
func (c *counters) predicts() string {
	var b strings.Builder
	for i := range c.stats {
		for _, t := range requestTargets {
			fmt.Fprintf(&b, "%d ", c.stats[i].Targets[t])
		}
		fmt.Fprintf(&b, "%v ", c.serve[i][servePredictOK])
	}
	for _, k := range []string{routerPredictOK, routerHedges, routerRetries} {
		fmt.Fprintf(&b, "%v ", c.router[k])
	}
	var keys []string
	for k := range c.router {
		if strings.HasPrefix(k, routerBackendRequests) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v ", k, c.router[k])
	}
	return b.String()
}

// subreqCount is the router's backend sub-requests between two snapshots.
type subreqCount struct {
	// ok counts attempts a backend answered, errs the failed ones, and
	// extra the hedged and retried attempts among them.
	ok, errs, extra float64
}

func (sr *servingRun) subreqs(b, a *counters) *subreqCount {
	d := func(key string) float64 { return a.router[key] - b.router[key] }
	sc := &subreqCount{extra: d(routerHedges) + d(routerRetries)}
	for _, url := range sr.st.names {
		sc.ok += d(fmt.Sprintf(`%s{backend=%q,outcome="ok"}`, routerBackendRequests, url))
		sc.errs += d(fmt.Sprintf(`%s{backend=%q,outcome="error"}`, routerBackendRequests, url))
	}
	return sc
}

const (
	routerBackendRequests = "dramrouter_backend_requests_total"
	routerHedges          = "dramrouter_hedges_total"
	routerRetries         = "dramrouter_retries_total"

	servePredictOK  = `dramserve_requests_total{endpoint="/v2/predict",code="200"}`
	routerPredictOK = `dramrouter_requests_total{endpoint="/v2/predict",code="200"}`
	serveIngestOK   = `dramserve_requests_total{endpoint="/v2/ingest",code="200"}`
)

// checkCounters is the validity gate's accounting check: the client's
// completed predicts must match what the servers (and the router) count
// in /v2/stats and /metrics.
func (sr *servingRun) checkCounters(b, a *counters, completed int) {
	delta := func(key string) float64 { return sumScrape(a.serve, key) - sumScrape(b.serve, key) }
	hedges := 0.0
	if sr.mode == modeRouted {
		got := a.router[routerPredictOK] - b.router[routerPredictOK]
		if int(got) != completed {
			sr.rep.fail("router /metrics counts %v answered predicts, client completed %d", got, completed)
		}
		// Both snapshots are settled, so every attempt the window launched
		// has finished and none from before it is still running.
		hedges = sr.subreqs(b, a).extra
	} else if got := delta(servePredictOK); int(got) != completed {
		sr.rep.fail("/metrics counts %v answered predicts, client completed %d", got, completed)
	}
	for _, t := range requestTargets {
		var n int64
		for i := range a.stats {
			n += a.stats[i].Targets[t] - b.stats[i].Targets[t]
		}
		// A hedged or retried sub-request may be answered by two backends.
		if n < int64(completed) || float64(n) > float64(completed)+hedges {
			sr.rep.fail("/v2/stats counts %d %s answers, client completed %d (hedges+retries %v)", n, t, completed, hedges)
		}
	}
	if sr.mode == modeIngest {
		if got := delta(serveIngestOK); int(got) != completed {
			sr.rep.fail("/metrics counts %v accepted ingests, client sent %d", got, completed)
		}
	}
}

// recordServeMetrics sets the per-layer counts read from the servers' and
// router's own expositions.
func (sr *servingRun) recordServeMetrics(b, a *counters, completed int) {
	s := a.serve
	sr.rep.set("serve.fits", sumScrape(s, "dramserve_model_registry_misses_total"))
	sr.rep.set("serve.fit_s", sumScrape(s, "dramserve_train_seconds_sum"))
	sr.rep.set("serve.profile_builds", sumScrape(s, "dramserve_profile_cache_misses_total"))
	sr.rep.set("serve.profile_s", sumScrape(s, "dramserve_profile_seconds_sum"))
	batches := sumScrape(s, "dramserve_predict_batches_total") - sumScrape(b.serve, "dramserve_predict_batches_total")
	queries := sumScrape(s, "dramserve_predict_batched_queries_total") - sumScrape(b.serve, "dramserve_predict_batched_queries_total")
	if batches > 0 {
		sr.rep.set("serve.batch_size", queries/batches)
	}
	if sr.mode != modeRouted || completed == 0 {
		return
	}
	sc := sr.subreqs(b, a)
	sr.rep.set("cluster.subreqs_per_query", (sc.ok+sc.errs)/float64(completed))
	if tries := sc.ok + sc.errs + a.router[routerHedges] - b.router[routerHedges]; tries > 0 {
		sr.rep.set("cluster.useful_frac", sc.ok/tries)
	}
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
