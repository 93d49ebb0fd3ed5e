package benchmark

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/ml
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkForestPredict-4   	   51262	     23310 ns/op	       0 B/op	       0 allocs/op
BenchmarkKNNPredict/select-4         	    4106	    290219 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/ml	3.1s
pkg: repro/internal/fleet
BenchmarkFleetDrive-4 	     200	   5897369 ns/op	 1005840 B/op	   11391 allocs/op
PASS
ok  	repro/internal/fleet	2.2s
`

func TestParse(t *testing.T) {
	s, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if s.MachineClass != "linux-amd64" {
		t.Fatalf("machine class %q", s.MachineClass)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(s.Benchmarks), s.Benchmarks)
	}
	forest, ok := s.Benchmarks["repro/internal/ml.BenchmarkForestPredict"]
	if !ok || forest.NsPerOp != 23310 || forest.AllocsPerOp != 0 || forest.BytesPerOp != 0 {
		t.Fatalf("forest = %+v, %v", forest, ok)
	}
	// The -GOMAXPROCS suffix is stripped so keys are stable across runners.
	knn, ok := s.Benchmarks["repro/internal/ml.BenchmarkKNNPredict/select"]
	if !ok || knn.NsPerOp != 290219 {
		t.Fatalf("knn sub-benchmark = %+v, %v", knn, ok)
	}
	fleet := s.Benchmarks["repro/internal/fleet.BenchmarkFleetDrive"]
	if fleet.AllocsPerOp != 11391 || fleet.BytesPerOp != 1005840 {
		t.Fatalf("fleet = %+v", fleet)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for name, input := range map[string]string{
		"empty":        "",
		"no header":    "BenchmarkX-4 10 5 ns/op\n",
		"no results":   "goos: linux\ngoarch: amd64\npkg: p\nPASS\n",
		"orphan bench": "goos: linux\ngoarch: amd64\nBenchmarkX-4 10 5 ns/op\n",
	} {
		if _, err := Parse(strings.NewReader(input)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestLoadMalformed(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"truncated.json":  `{"machine_class": "linux-amd64", "benchmarks": {`,
		"no_class.json":   `{"benchmarks": {"p.BenchmarkX": {"ns_per_op": 1}}}`,
		"no_benches.json": `{"machine_class": "linux-amd64", "benchmarks": {}}`,
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file loaded without error")
	}
}

func TestWriteRoundTrip(t *testing.T) {
	s, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "BENCH_linux-amd64.json")
	if err := s.Write(p); err != nil {
		t.Fatal(err)
	}
	got, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.MachineClass != s.MachineClass || len(got.Benchmarks) != len(s.Benchmarks) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Benchmarks["repro/internal/fleet.BenchmarkFleetDrive"] != s.Benchmarks["repro/internal/fleet.BenchmarkFleetDrive"] {
		t.Fatal("round trip changed a result")
	}
}

func snap(class string, benches map[string]Result) *Snapshot {
	return &Snapshot{MachineClass: class, Benchmarks: benches}
}

func TestCompareMachineClassMismatchSkips(t *testing.T) {
	base := snap("linux-amd64", map[string]Result{"p.BenchmarkX": {NsPerOp: 100}})
	cur := snap("darwin-arm64", map[string]Result{"p.BenchmarkX": {NsPerOp: 900}})
	v := Compare(base, cur, Options{})
	if !v.Skipped || !v.OK() {
		t.Fatalf("class mismatch must skip and pass, got %+v", v)
	}
	if !strings.Contains(v.Reason, "linux-amd64") || !strings.Contains(v.Reason, "darwin-arm64") {
		t.Fatalf("reason does not name both classes: %q", v.Reason)
	}
}

func TestCompareToleranceMath(t *testing.T) {
	base := snap("linux-amd64", map[string]Result{
		"p.BenchmarkHot":   {NsPerOp: 100, BytesPerOp: 0, AllocsPerOp: 0},
		"p.BenchmarkDrive": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 1000},
	})
	cases := []struct {
		name string
		cur  map[string]Result
		opts Options
		want int // regression count
	}{
		{"identical", map[string]Result{
			"p.BenchmarkHot":   {NsPerOp: 100},
			"p.BenchmarkDrive": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 1000},
		}, Options{}, 0},
		{"at the factor boundary passes", map[string]Result{
			"p.BenchmarkHot":   {NsPerOp: 200},
			"p.BenchmarkDrive": {NsPerOp: 2000, BytesPerOp: 2000, AllocsPerOp: 2000},
		}, Options{}, 0},
		{"past the factor fails each metric", map[string]Result{
			"p.BenchmarkHot":   {NsPerOp: 201},
			"p.BenchmarkDrive": {NsPerOp: 2001, BytesPerOp: 2001, AllocsPerOp: 2001},
		}, Options{}, 4},
		{"single alloc on a zero-alloc path fails exactly", map[string]Result{
			"p.BenchmarkHot":   {NsPerOp: 100, BytesPerOp: 8, AllocsPerOp: 1},
			"p.BenchmarkDrive": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 1000},
		}, Options{}, 2}, // allocs exact + bytes (0 baseline allows 0)
		{"improvement never fails", map[string]Result{
			"p.BenchmarkHot":   {NsPerOp: 10},
			"p.BenchmarkDrive": {NsPerOp: 100, BytesPerOp: 10, AllocsPerOp: 10},
		}, Options{}, 0},
		{"custom factor tightens the gate", map[string]Result{
			"p.BenchmarkHot":   {NsPerOp: 160},
			"p.BenchmarkDrive": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 1000},
		}, Options{TimeFactor: 1.5}, 1},
		{"custom factor loosens the gate", map[string]Result{
			"p.BenchmarkHot":   {NsPerOp: 250},
			"p.BenchmarkDrive": {NsPerOp: 1000, BytesPerOp: 1000, AllocsPerOp: 1000},
		}, Options{TimeFactor: 3}, 0},
	}
	for _, tc := range cases {
		v := Compare(base, snap("linux-amd64", tc.cur), tc.opts)
		if v.Skipped {
			t.Errorf("%s: unexpectedly skipped", tc.name)
		}
		if len(v.Regressions) != tc.want {
			t.Errorf("%s: %d regressions, want %d: %v", tc.name, len(v.Regressions), tc.want, v.Regressions)
		}
	}
}

func TestCompareMissingAndNew(t *testing.T) {
	base := snap("linux-amd64", map[string]Result{
		"p.BenchmarkA": {NsPerOp: 100},
		"p.BenchmarkB": {NsPerOp: 100},
	})
	cur := snap("linux-amd64", map[string]Result{
		"p.BenchmarkA": {NsPerOp: 100},
		"p.BenchmarkC": {NsPerOp: 100},
	})
	v := Compare(base, cur, Options{})
	if len(v.Regressions) != 1 || !strings.Contains(v.Regressions[0], "p.BenchmarkB") {
		t.Fatalf("missing baseline benchmark must regress: %v", v.Regressions)
	}
	if len(v.New) != 1 || v.New[0] != "p.BenchmarkC" {
		t.Fatalf("new benchmark must be reported, not failed: %v", v.New)
	}
	if v.OK() {
		t.Fatal("verdict with regressions reports OK")
	}
}

// FuzzParse feeds arbitrary bytes to Parse: it must never panic, a
// successful parse must carry a machine class and at least one result,
// and parsing the same bytes twice must give equal snapshots (or the
// same error). The seed corpus is under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleOutput))
	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err1 := Parse(bytes.NewReader(data))
		s2, err2 := Parse(bytes.NewReader(data))
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("two parses disagree: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if s1.MachineClass == "" || len(s1.Benchmarks) == 0 {
			t.Fatalf("successful parse without class or results: %+v", s1)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("two parses differ:\n%+v\n%+v", s1, s2)
		}
	})
}
