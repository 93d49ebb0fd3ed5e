// Command perfbench is the repository's benchmark: one program that runs
// one of three seeded serving workloads, checks every answer, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	perfbench -workload fleet-knn -seed 1 -seconds 8 -trace 0
//
// Workloads (see README.md for what each metric means):
//
//   - fleet-knn: a seeded fleet query stream against one in-process
//     serve.Server answering with the default KNN models;
//   - routed-rdf: the same stream through a cluster.Router in front of two
//     in-process servers, answering with RDF models;
//   - ingest-retrain: one ingest-enabled server, every answered predict
//     followed by its ground-truth /v2/ingest row, and a POST /v2/retrain
//     opening every closed-loop segment.
//
// Every run first builds the served artifact through the campaign code
// path (profiles, characterization, UE windows, save) and evaluates the
// served model kind, timing both. With -trace 0 the metrics are the
// end-to-end ones; with -trace 1 the run records spans around every layer
// it calls and prints the per-layer ones, writes the spans to a file and
// prints a self-time table to stderr. Everything runs in this process over
// loopback, driven only through the program's public entry points.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	// pprof, when set, captures a CPU and an alloc profile of the timed
	// window into the output directory.
	pprof bool
	// tiny shrinks every size to a smoke-test scale, and tamper corrupts
	// one answer before the correctness gate runs; both serve the package
	// test.
	tiny, tamper bool
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadList())
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the fleet query stream derives from it")
	flag.Float64Var(&o.seconds, "seconds", 8, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for artifacts, span files and profiles")
	flag.BoolVar(&o.pprof, "pprof", false, "capture CPU and alloc profiles of the measured window")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", trace))
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds %v out of range", o.seconds))
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result.
func run(o options) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", o.workload, workloadList())
	}
	base, err := loadBaseline()
	if err != nil {
		return nil, err
	}
	if n := nproc(); n != base.Machine.Nproc {
		logf("warning: %d CPUs here, the rates were chosen on a %d-CPU host; the load keeps %d requests in flight",
			n, base.Machine.Nproc, base.Machine.Nproc)
	}
	dir, err := os.MkdirTemp(ensureDir(o.out), fmt.Sprintf("%s-seed%d-", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{
		opts:   o,
		base:   base,
		dir:    dir,
		sizes:  sizesFor(o, base),
		rep:    newReport(),
		tracer: newTracer(o.trace),
		evals:  map[core.ModelKind][]float64{},
	}
	if err := wl(r); err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace {
		if err := r.finishTrace(); err != nil {
			return nil, err
		}
	}
	return r.rep.result(o.trace)
}

// startProfile begins the optional CPU profile of a measured window; the
// returned stop writes the CPU profile and an alloc profile.
func (r *runner) startProfile() (stop func()) {
	if !r.opts.pprof {
		return func() {}
	}
	name := fmt.Sprintf("%s-seed%d", r.opts.workload, r.opts.seed)
	cpu, err := os.Create(filepath.Join(r.opts.out, name+".cpu.pprof"))
	if err != nil {
		logf("pprof: %v", err)
		return func() {}
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		logf("pprof: %v", err)
		cpu.Close()
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			logf("pprof: %v", err)
		}
		mem, err := os.Create(filepath.Join(r.opts.out, name+".alloc.pprof"))
		if err != nil {
			logf("pprof: %v", err)
			return
		}
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			logf("pprof: %v", err)
		}
		if err := mem.Close(); err != nil {
			logf("pprof: %v", err)
		}
		logf("wrote %s.{cpu,alloc}.pprof to %s", name, r.opts.out)
	}
}

// ensureDir creates dir (and parents) and returns it; a failure surfaces
// at the first file created inside it.
func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// nproc is the number of CPUs the process may use: the worker count of the
// program's parallel stages. The load's concurrency is the recorded
// machine's instead (sizes.inflight).
func nproc() int { return runtime.GOMAXPROCS(0) }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
