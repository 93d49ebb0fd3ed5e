package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/workload"
	"repro/internal/xgene"
)

// workloads maps each workload name to its run.
var workloads = map[string]func(*runner) error{
	"fleet-knn":      func(r *runner) error { return r.serving(modeDirect) },
	"routed-rdf":     func(r *runner) error { return r.serving(modeRouted) },
	"ingest-retrain": func(r *runner) error { return r.serving(modeIngest) },
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runner carries one run's settings and shared state.
type runner struct {
	opts   options
	base   *baseline
	dir    string
	sizes  sizes
	rep    *report
	tracer *tracer
	// evals collects each kind's evaluation times for its eval.<kind>_s.
	evals map[core.ModelKind][]float64
	// evalCPU and evalAllocs are the process CPU time (s) and heap
	// allocations of every evaluation pass.
	evalCPU, evalAllocs []float64
	// predictTimes holds the gate's in-process predict time per (query,
	// target) in µs, for the traced run's serve.self attribution.
	predictTimes map[int]map[string]float64
	// tracedSubreqs is the router's sub-request count over the traced
	// phase; nil when the workload is not routed.
	tracedSubreqs *subreqCount
}

// sizes are the run's volumes: the campaign parameters, the fleet size
// and the request counts of each phase.
type sizes struct {
	scale, reps, ueWindows int
	servers                int
	// inflight is the load's concurrency: open-loop senders, closed-loop
	// workers and client connections per host.
	inflight       int
	setups, builds int
	// warm is the number of warm-up requests before the measured phases.
	warm int
	// rateScale multiplies the recorded rates and volumes (tiny runs use
	// a small fraction).
	rateScale float64
	// maxOpen and maxClosed cap the phase request counts (tiny runs).
	maxOpen, maxClosed int
}

// sizesFor resolves the recorded settings for o's workload, or the
// smoke-test scale of a tiny run.
func sizesFor(o options, b *baseline) sizes {
	if o.tiny {
		return sizes{scale: 64, reps: 2, ueWindows: 4, servers: 4, inflight: b.Machine.Nproc,
			setups: 1, builds: 1, warm: 4, rateScale: 0.1, maxOpen: 24, maxClosed: 16}
	}
	c := b.Campaign
	return sizes{scale: c.Scale, reps: c.Reps, ueWindows: c.UEWindows,
		servers: b.FleetServers, inflight: b.Machine.Nproc, setups: b.Setups, builds: b.Builds,
		warm: 200, rateScale: 1, maxOpen: math.MaxInt, maxClosed: math.MaxInt}
}

// settings returns the workload's recorded settings.
func (r *runner) settings() workloadSetting { return r.base.Workloads[r.opts.workload] }

// phaseCounts sizes the open and closed loops of the measured window.
func (r *runner) phaseCounts(w workloadSetting) (rate float64, open, closed int) {
	rate = w.RateQPS * r.sizes.rateScale
	open = min(int(rate*r.opts.seconds*r.base.OpenShare), r.sizes.maxOpen)
	closed = min(int(w.ClosedQPS*r.sizes.rateScale*r.opts.seconds*(1-r.base.OpenShare)), r.sizes.maxClosed)
	return rate, max(open, 1), max(closed, 1)
}

// size is the profile size of the campaign: quick profiles, as dramtrain
// -quick builds them.
func (r *runner) size() workload.Size { return workload.SizeTest }

// stream returns the seeded fleet query stream the workloads replay.
func (r *runner) stream(n int) ([]fleet.Query, error) {
	f, err := fleet.New(fleet.Config{Servers: r.sizes.servers, Seed: r.opts.seed})
	if err != nil {
		return nil, err
	}
	return f.Take(n), nil
}

// campaignTimes are the stages of one campaign build.
type campaignTimes struct {
	profiles, characterize, ueWindows, save time.Duration
	// cpu and allocs are the process CPU time and heap allocations of the
	// whole build.
	cpu     time.Duration
	allocs  uint64
	cpuUtil float64
}

func (c campaignTimes) total() time.Duration {
	return c.profiles + c.characterize + c.ueWindows + c.save
}

// campaign runs the artifact-building code path dramtrain runs for
// -quick -ue-windows: profiles, characterization, UE windows, save.
func (r *runner) campaign(path string) (*core.Dataset, campaignTimes, error) {
	var ct campaignTimes
	specs := workload.ExtendedSet()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuTime(), time.Now()
	profiles, err := core.BuildProfiles(specs, r.size(), r.campaignSeed(), nproc())
	if err != nil {
		return nil, ct, err
	}
	t1 := time.Now()
	srv, err := xgene.NewServer(xgene.Config{Seed: r.campaignSeed(), Scale: r.sizes.scale})
	if err != nil {
		return nil, ct, err
	}
	ds, err := core.BuildDataset(srv, profiles, specs, core.CampaignOptions{Reps: r.sizes.reps, Workers: nproc()})
	if err != nil {
		return nil, ct, err
	}
	ds.StampBuild(r.size(), r.campaignSeed())
	t2 := time.Now()
	rows, err := fleet.BuildUESamples(fleet.Config{Seed: r.campaignSeed()}, r.sizes.ueWindows)
	if err != nil {
		return nil, ct, err
	}
	ds.SetUER(rows)
	t3 := time.Now()
	if err := ds.Save(path); err != nil {
		return nil, ct, err
	}
	t4 := time.Now()
	runtime.ReadMemStats(&m1)
	ct = campaignTimes{
		allocs:   m1.Mallocs - m0.Mallocs,
		profiles: t1.Sub(t0), characterize: t2.Sub(t1), ueWindows: t3.Sub(t2), save: t4.Sub(t3),
		cpu:     cpuTime() - cpu0,
		cpuUtil: (cpuTime() - cpu0).Seconds() / (t4.Sub(t0).Seconds() * float64(nproc())),
	}
	r.tracer.direct("campaign.profiles", t0, t1)
	r.tracer.direct("campaign.characterize", t1, t2)
	r.tracer.direct("campaign.ue_windows", t2, t3)
	r.tracer.direct("campaign.save", t3, t4)
	r.checkFingerprint(ds)
	return ds, ct, nil
}

// prepare builds the campaign artifact at path several times, running
// eval after each build: campaign_s and eval_s are the medians over every
// build and every evaluation eval reports, the stage metrics come from the
// median build, and every build must produce the same artifact.
func (r *runner) prepare(path string, eval func(*core.Dataset) ([]float64, error)) (*core.Dataset, error) {
	var (
		ds            *core.Dataset
		builds        []campaignTimes
		totals, evals []float64
	)
	for i := 0; i < r.sizes.builds; i++ {
		d, ct, err := r.campaign(path)
		if err != nil {
			return nil, err
		}
		if ds != nil && d.Fingerprint() != ds.Fingerprint() {
			r.rep.fail("campaign is not deterministic: build %d produced %s, build 0 %s", i, d.Fingerprint(), ds.Fingerprint())
		}
		ds = d
		builds = append(builds, ct)
		totals = append(totals, ct.total().Seconds())
		e, err := eval(ds)
		if err != nil {
			return nil, err
		}
		evals = append(evals, e...)
	}
	sort.Slice(builds, func(i, j int) bool { return builds[i].total() < builds[j].total() })
	ct := builds[len(builds)/2]
	r.rep.set("campaign.profiles_s", ct.profiles.Seconds())
	r.rep.set("campaign.characterize_s", ct.characterize.Seconds())
	r.rep.set("campaign.ue_windows_s", ct.ueWindows.Seconds())
	r.rep.set("campaign.save_ms", ms(ct.save))
	r.rep.set("campaign.cpu_util", ct.cpuUtil)
	r.rep.set("campaign_s", median(totals))
	var cpus, allocs []float64
	for _, b := range builds {
		cpus = append(cpus, b.cpu.Seconds())
		allocs = append(allocs, float64(b.allocs))
	}
	r.rep.set("campaign_cpu_s", median(cpus))
	r.rep.set("campaign.allocs", median(allocs))
	if len(evals) > 0 {
		r.rep.set("eval_s", median(evals))
		r.rep.set("eval_cpu_s", median(r.evalCPU))
		r.rep.set("eval.allocs", median(r.evalAllocs))
	}
	logf("campaign: %d builds, median %.3fs (%s), CPU %.3fs (%s), %.0f allocations (%s)",
		len(totals), median(totals), fmtFloats(totals), median(cpus), fmtFloats(cpus), median(allocs), fmtFloats(allocs))
	logf("evaluation: %d passes, median %.4fs, CPU %.4fs, %.0f allocations", len(evals), median(evals), median(r.evalCPU), median(r.evalAllocs))
	return ds, nil
}

// campaignSeed keys the campaign, so every run serves the same artifact:
// a per-seed artifact changes the training rows by about 8% and the
// evaluation cost by about 20%, more than the run-to-run spread the
// benchmark's bounds allow. The workload seed drives the query stream.
func (r *runner) campaignSeed() uint64 { return r.base.Campaign.Seed }

// checkFingerprint compares the artifact with the recorded fingerprint.
func (r *runner) checkFingerprint(ds *core.Dataset) {
	if r.opts.tiny {
		return
	}
	if got, want := ds.Fingerprint(), r.base.Campaign.Fingerprint; got != want {
		r.rep.fail("campaign artifact fingerprint %s, recorded %s", got, want)
	}
}

// evaluate runs the leave-one-out evaluation of kind on every target at
// the given input sets (nil: each target's default set).
func (r *runner) evaluate(ds *core.Dataset, kind core.ModelKind, sets []core.InputSet) (time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := cpuTime(), time.Now()
	for _, t := range core.Targets() {
		ss := sets
		if ss == nil {
			ss = []core.InputSet{t.DefaultInputSet()}
		}
		for _, set := range ss {
			var err error
			switch t {
			case core.TargetWER:
				_, err = core.EvaluateWER(ds, kind, set, nproc())
			case core.TargetPUE:
				_, err = core.EvaluatePUE(ds, kind, set, nproc())
			case core.TargetUERisk:
				_, err = core.EvaluateUERisk(ds, kind, set, nproc())
			default:
				err = fmt.Errorf("no evaluation for target %s", t)
			}
			if err != nil {
				return 0, fmt.Errorf("evaluate %s %s %s: %w", t, kind, set, err)
			}
		}
	}
	d := time.Since(start)
	r.evalCPU = append(r.evalCPU, (cpuTime() - cpu0).Seconds())
	runtime.ReadMemStats(&m1)
	r.evalAllocs = append(r.evalAllocs, float64(m1.Mallocs-m0.Mallocs))
	r.tracer.direct("eval."+strings.ToLower(string(kind)), start, start.Add(d))
	r.evals[kind] = append(r.evals[kind], d.Seconds())
	r.rep.set("eval."+strings.ToLower(string(kind))+"_s", median(r.evals[kind]))
	return d, nil
}

// phase is one load phase's per-request record.
type phase struct {
	// lat is each request's latency in ms: from its due time in the open
	// loop, from its send in the closed loop. lag is how late the
	// generator sent it (open loop only).
	lat, lag []float64
	errs     []error
	wall     time.Duration
	// cpu is the process CPU time the phase used; mallocs and bytes are
	// the heap allocations it made.
	cpu            time.Duration
	mallocs, bytes uint64
	// leads counts the segment-opening operations among lat: requests
	// that are not predicts.
	leads int
}

func newPhase(n int) *phase {
	return &phase{lat: make([]float64, n), lag: make([]float64, n), errs: make([]error, n)}
}

func (p *phase) failed() int {
	n := 0
	for _, e := range p.errs {
		if e != nil {
			n++
		}
	}
	return n
}

func (p *phase) firstErr() error {
	for _, e := range p.errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// openLoop issues n requests on a fixed schedule — request k is due at
// start + k/rate whether or not earlier ones finished — through senders
// concurrent senders. Latency runs from the due time, so a stall charges
// every request queued behind it. Lag is the time from when a request
// could first have gone out (its due time, or its sender's previous
// completion if later) to its actual send: the generator's own lateness.
func openLoop(n int, rate float64, senders int, do func(k int, due time.Time) error) *phase {
	p := newPhase(n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				sleepUntil(due)
				sent := time.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				p.errs[k] = do(k, due)
				free = time.Now()
				p.lat[k] = ms(free.Sub(due))
				p.lag[k] = ms(sent.Sub(ready))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// sleepUntil waits for t. The runtime's timers round a wait on an idle
// processor up to whole milliseconds, which would add about a millisecond
// of generator lag to every open-loop request; the last stretch of the
// wait is a nanosleep system call instead, accurate to the kernel's timer
// slack (about 60 µs).
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
		d = time.Until(t)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just sends early
	}
}

// closedLoop issues n requests from workers concurrent workers, each
// sending its next request as soon as the previous one completes.
func closedLoop(n, workers int, do func(k int, sent time.Time) error) *phase {
	p := newPhase(n)
	cpu0, start := cpuTime(), time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				t := time.Now()
				p.errs[k] = do(k, t)
				p.lat[k] = ms(time.Since(t))
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	return p
}

// window is the measured window: open-loop segments, then closed-loop
// segments. A transient disturbance on the shared host spoils a segment
// rather than the run, and the figures are medians over segments.
type window struct {
	open, closed []*phase
	// mallocs and bytes are the process's allocations during the open
	// segments.
	mallocs, bytes uint64
	// next is the first stream index after the window.
	next int
}

// measure runs the window over the stream from index first: nOpen
// requests at rate in the workload's open segments, then nClosed as fast as
// the in-flight limit allows in its closed segments. op(first) returns the
// operation for stream offset first; startSegment, when set, opens every
// closed segment. rss marks the end of every segment.
func (r *runner) measure(ws workloadSetting, first, nOpen, nClosed int, rate float64, op func(first int) func(int, time.Time) error, startSegment func() error, rss *rssSampler) *window {
	openRounds, closedRounds := r.rounds(ws)
	w := &window{}
	for i := 0; i < openRounds; i++ {
		no := share(nOpen, openRounds, i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w.open = append(w.open, openLoop(no, rate, r.sizes.inflight, op(first)))
		runtime.ReadMemStats(&m1)
		w.mallocs += m1.Mallocs - m0.Mallocs
		w.bytes += m1.TotalAlloc - m0.TotalAlloc
		rss.mark()
		first += no
	}
	for i := 0; i < closedRounds; i++ {
		nc := share(nClosed, closedRounds, i)
		var (
			lead, leadCPU time.Duration
			leadErr       error
			m0, m1        runtime.MemStats
		)
		if startSegment != nil {
			// The opening operation counts as one of the segment's requests,
			// and its time as part of the segment's, so every segment pays
			// for one opening operation and whatever it leaves the segment's
			// requests to redo. It starts from a collected heap, so its
			// memory peak does not depend on where the previous segment left
			// the collector.
			runtime.GC()
		}
		runtime.ReadMemStats(&m0)
		if startSegment != nil {
			c, t := cpuTime(), time.Now()
			leadErr = startSegment()
			lead, leadCPU = time.Since(t), cpuTime()-c
		}
		p := closedLoop(nc, r.sizes.inflight, op(first))
		runtime.ReadMemStats(&m1)
		p.mallocs, p.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		if startSegment != nil {
			p.errs = append(p.errs, leadErr)
			p.wall += lead
			p.cpu += leadCPU
			p.leads = 1
			p.lat = append(p.lat, ms(lead))
			p.lag = append(p.lag, 0)
		}
		w.closed = append(w.closed, p)
		rss.mark()
		first += nc
	}
	w.next = first
	return w
}

// rounds is the workload's number of open- and closed-loop segments.
func (r *runner) rounds(w workloadSetting) (open, closed int) {
	open, closed = r.base.Rounds, r.base.Rounds
	if w.OpenRounds > 0 {
		open = w.OpenRounds
	}
	if w.ClosedRounds > 0 {
		closed = w.ClosedRounds
	}
	return open, closed
}

// share is round i's part of n requests split over rounds.
func share(n, rounds, i int) int {
	return n*(i+1)/rounds - n*i/rounds
}

func (w *window) phases() []*phase { return append(append([]*phase(nil), w.open...), w.closed...) }

// openRequests is the number of open-loop requests.
func (w *window) openRequests() int {
	n := 0
	for _, p := range w.open {
		n += len(p.lat)
	}
	return n
}

// failed counts failed requests over the window.
func (w *window) failed() int {
	n := 0
	for _, p := range w.phases() {
		n += p.failed()
	}
	return n
}

// recordLoad sets the latency and throughput metrics from the window and
// checks the generator kept its schedule. Each figure is the median over
// segments of that segment's p50, p90, p99 or throughput, so a burst of
// host noise that spoils a segment or two does not move it.
func (r *runner) recordLoad(ws workloadSetting, w *window) {
	var p50s, p90s, p99s, qps, lags []float64
	for _, p := range w.phases() {
		r.rep.count(len(p.lat), p.failed())
		if err := p.firstErr(); err != nil {
			logf("first failure: %v", err)
		}
	}
	for _, p := range w.open {
		p50s = append(p50s, median(p.lat))
		p90s = append(p90s, quantile(p.lat, 0.9))
		p99s = append(p99s, quantile(p.lat, 0.99))
		lags = append(lags, p.lag...)
	}
	var (
		cpu                        time.Duration
		mallocs, bytes             uint64
		predicts                   int
		cpuUS, allocsPer, bytesPer []float64
	)
	for _, p := range w.closed {
		qps = append(qps, float64(len(p.lat))/p.wall.Seconds())
		n := float64(len(p.lat) - p.leads)
		cpu += p.cpu
		mallocs += p.mallocs
		bytes += p.bytes
		predicts += len(p.lat) - p.leads
		cpuUS = append(cpuUS, us(p.cpu)/n)
		allocsPer = append(allocsPer, float64(p.mallocs)/n)
		bytesPer = append(bytesPer, float64(p.bytes)/1024/n)
	}
	// A segment of fewer than 1000 samples has fewer than ten beyond its
	// p99: pool the segments for the tail instead.
	p50, p90, p99 := median(p50s), median(p90s), median(p99s)
	var lat []float64
	for _, p := range w.open {
		lat = append(lat, p.lat...)
	}
	if len(lat) < 1000*len(w.open) {
		p99 = quantile(lat, 0.99)
	}
	r.rep.set("client.p50_ms", p50)
	r.rep.set("client.p90_ms", p90)
	r.rep.set("client.p99_ms", p99)
	r.rep.set("client.qps", median(qps))
	r.rep.set("predict_cpu_us", us(cpu)/float64(predicts))
	r.rep.set("predict_allocs", float64(mallocs)/float64(predicts))
	r.rep.set("predict_alloc_kb", float64(bytes)/1024/float64(predicts))
	lag := quantile(lags, 0.99)
	r.rep.set("client.lag_ms.p99", lag)
	n := w.openRequests()
	r.rep.set("client.samples", float64(n))
	logf("open loop: %d requests at %g/s in %d segments, segment p50 %s ms, p90 %s ms, p99 %s ms; p99 %.3f ms; lag p99 %.3f ms",
		n, ws.RateQPS*r.sizes.rateScale, len(w.open), fmtFloats(p50s), fmtFloats(p90s), fmtFloats(p99s), p99, lag)
	logf("closed loop: segment throughput %s /s with %d in flight", fmtFloats(qps), r.sizes.inflight)
	logf("closed loop: per predict %.1f µs CPU (segments %s), %.1f allocations (%s), %.2f KB (%s)",
		us(cpu)/float64(predicts), fmtFloats(cpuUS), float64(mallocs)/float64(predicts), fmtFloats(allocsPer),
		float64(bytes)/1024/float64(predicts), fmtFloats(bytesPer))
	if bound := ws.LagBoundMS; lag > bound && !r.opts.tiny {
		r.rep.fail("invalid run: client.lag_ms.p99 %.3f ms exceeds its %.1f ms bound", lag, bound)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the peak resident set (VmRSS) of the process over the
// measured window, leaving out the benchmark's own preparation and
// correctness gate. It keeps each segment's peak for the log;
// rss_peak_mb is the highest. The median of the segments' peaks mixed
// the two regimes of ingest-retrain (about 27 MB in the open segments,
// 75-200 MB in the retrain segments) and spread by 0.12 over ten seeds,
// against 0.03-0.07 for the peak.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	cur   float64 // peak of the current segment
	peaks []float64
}

// startRSS returns the heap's garbage to the OS first, so the peaks
// reflect what the workload holds rather than what earlier phases left
// behind.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), cur: rssMB()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := rssMB()
				s.mu.Lock()
				s.cur = max(s.cur, v)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// mark closes the current segment.
func (s *rssSampler) mark() {
	v := rssMB()
	s.mu.Lock()
	s.peaks = append(s.peaks, max(s.cur, v))
	s.cur = v
	s.mu.Unlock()
}

// end stops the sampler and records rss_peak_mb.
func (s *rssSampler) end(rep *report) {
	close(s.stop)
	<-s.done
	rep.set("rss_peak_mb", slices.Max(s.peaks))
	logf("resident set: segment peaks %s MB", fmtFloats(s.peaks))
}

// rssMB is the process's current resident set (VmRSS) in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// fmtFloats renders a list compactly.
func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}
