package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderedResults verifies results land at their job index no matter
// how many workers race over the jobs.
func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		res, err := Map(100, func(i int) (int, error) { return i * i, nil },
			Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range res {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

// TestMapDeterministicWithJobRNG is the engine's core contract: jobs that
// draw from SplitRNGs produce bit-identical outputs at any worker count.
func TestMapDeterministicWithJobRNG(t *testing.T) {
	run := func(workers int) []uint64 {
		rngs := SplitRNGs(42, 64)
		res, err := Map(64, func(i int) (uint64, error) {
			// Several draws, so stream interleaving bugs would show.
			v := rngs[i].Uint64()
			for k := 0; k < 10; k++ {
				v ^= rngs[i].Uint64()
			}
			return v, nil
		}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sequential := run(1)
	for _, workers := range []int{2, 4, 8} {
		parallel := run(workers)
		for i := range sequential {
			if parallel[i] != sequential[i] {
				t.Fatalf("workers=%d: job %d diverged from sequential", workers, i)
			}
		}
	}
}

// TestSplitRNGsIndependentOfCount verifies stream i does not depend on how
// many streams were derived after it.
func TestSplitRNGsIndependentOfCount(t *testing.T) {
	a := SplitRNGs(7, 4)
	b := SplitRNGs(7, 16)
	for i := 0; i < 4; i++ {
		if a[i].Uint64() != b[i].Uint64() {
			t.Fatalf("stream %d depends on total stream count", i)
		}
	}
	s1 := SplitSeeds(7, 4)
	s2 := SplitSeeds(7, 16)
	for i := 0; i < 4; i++ {
		if s1[i] != s2[i] {
			t.Fatalf("seed %d depends on total seed count", i)
		}
	}
}

// TestMapWorkerBound verifies concurrency never exceeds Options.Workers.
func TestMapWorkerBound(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	_, err := Map(50, func(i int) (struct{}, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return struct{}{}, nil
	}, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, worker bound is %d", p, workers)
	}
}

// TestMapErrorPropagation verifies a failing job surfaces its error with
// the job index, stops dispatch of later jobs, and keeps earlier results.
func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	job := func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}
	res, err := Map(1000, job, Options{Workers: 2})
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the job error: %v", err)
	}
	if !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("error does not name the failing job: %v", err)
	}
	// Jobs claimed before the failing job was dispatched run to completion
	// and keep their results (claims are in index order, so jobs 1 and 2
	// were claimed before job 3).
	if res[1] != 1 || res[2] != 2 {
		t.Fatalf("partial results lost: %v", res[:4])
	}

	// Dispatch stops at the failure. With two workers the other one may
	// legitimately run every remaining job before the failing one records
	// its error, so the stop is pinned with one worker: jobs 0..3 run, and
	// nothing after.
	ran.Store(0)
	if _, err := Map(1000, job, Options{Workers: 1}); !errors.Is(err, boom) {
		t.Fatalf("one worker: error chain lost the job error: %v", err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("one worker: %d jobs ran, want 4 (dispatch must stop at the failing job)", n)
	}
}

// TestMapAggregatesMultipleErrors verifies concurrent failures are all
// reported, not just the first.
func TestMapAggregatesMultipleErrors(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(2)
	_, err := Map(2, func(i int) (int, error) {
		gate.Done()
		gate.Wait() // both jobs in flight before either fails
		return 0, fmt.Errorf("job-specific failure %d", i)
	}, Options{Workers: 2})
	if err == nil {
		t.Fatal("expected error")
	}
	for i := 0; i < 2; i++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("job-specific failure %d", i)) {
			t.Fatalf("error lost failure %d: %v", i, err)
		}
	}
}

// TestMapCancellation verifies a canceled context stops dispatch and is
// reported to the caller.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(1000, func(i int) (int, error) {
		if ran.Add(1) == 5 {
			cancel()
		}
		return i, nil
	}, Options{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("cancellation did not stop dispatch")
	}
}

// TestMapPreCanceledContext verifies no job runs under an already-canceled
// context.
func TestMapPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(10, func(i int) (int, error) {
		ran.Add(1)
		return i, nil
	}, Options{Workers: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a pre-canceled context", ran.Load())
	}
}

// TestMapProgress verifies the progress hook sees every completion with a
// strictly increasing counter.
func TestMapProgress(t *testing.T) {
	var calls []int
	var totals []int
	_, err := Map(20, func(i int) (int, error) { return i, nil }, Options{
		Workers: 4,
		OnProgress: func(done, total int) {
			calls = append(calls, done)
			totals = append(totals, total)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 20 {
		t.Fatalf("progress called %d times, want 20", len(calls))
	}
	for k, d := range calls {
		if d != k+1 {
			t.Fatalf("progress counter not strictly increasing: %v", calls)
		}
		if totals[k] != 20 {
			t.Fatalf("progress total = %d, want 20", totals[k])
		}
	}
}

// TestMapEmptyAndForEach covers the degenerate shapes.
func TestMapEmptyAndForEach(t *testing.T) {
	res, err := Map(0, func(i int) (int, error) { return i, nil }, Options{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty map: res=%v err=%v", res, err)
	}
	var sum atomic.Int64
	if err := ForEach(10, func(i int) error {
		sum.Add(int64(i))
		return nil
	}, Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Fatalf("ForEach sum = %d, want 45", sum.Load())
	}
}

// TestEffectiveWorkers verifies the default resolution.
func TestEffectiveWorkers(t *testing.T) {
	if (Options{Workers: 5}).EffectiveWorkers() != 5 {
		t.Fatal("explicit worker count not honored")
	}
	if (Options{}).EffectiveWorkers() < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}
