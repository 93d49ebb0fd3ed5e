package ingest

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/profile"
)

func ptr(v float64) *float64 { return &v }

// telemetryRow builds a valid UE-labeled row; shift moves the operating
// point to force drift against unshifted baselines.
func telemetryRow(i int, shift float64) Row {
	return Row{
		Server: fmt.Sprintf("server%02d", i%4),
		TREFP:  1.8 + shift,
		VDD:    1.4,
		TempC:  60 + float64(i%5),
		CE: []profile.CEEvent{
			{T: 1, Row: 10 + i%3, Col: 2, Bank: 0, Rank: 0, Bits: 1},
			{T: 2, Row: 10 + i%3, Col: 5, Bank: 1, Rank: 0, Bits: 1},
		},
		UE: ptr(float64(i % 2)),
	}
}

func baselineOver(n int, shift float64) *core.TelemetrySummary {
	rows := make([]core.UESample, n)
	for i := range rows {
		r := telemetryRow(i, shift)
		rows[i] = core.UESample{
			Server: r.Server, TREFP: r.TREFP, VDD: r.VDD, TempC: r.TempC,
			CEFeatures: profile.CEFeatures(r.CE), UE: *r.UE,
		}
	}
	return core.SummarizeTelemetry(rows)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRowValidate(t *testing.T) {
	good := telemetryRow(0, 0)
	if f, err := good.Validate(); err != nil {
		t.Fatalf("valid row rejected: field %q: %v", f, err)
	}
	cases := []struct {
		name  string
		mut   func(*Row)
		field string
	}{
		{"zero trefp", func(r *Row) { r.TREFP = 0 }, "trefp"},
		{"nan trefp", func(r *Row) { r.TREFP = math.NaN() }, "trefp"},
		{"inf temp", func(r *Row) { r.TempC = math.Inf(1) }, "temp_c"},
		{"negative vdd", func(r *Row) { r.VDD = -1 }, "vdd"},
		{"bad rank", func(r *Row) { r.Rank = 99 }, "rank"},
		{"unlabeled", func(r *Row) { r.UE = nil }, ""},
		{"ue range", func(r *Row) { r.UE = ptr(2) }, "ue"},
		{"ue without server", func(r *Row) { r.Server = "" }, "server"},
		{"wer range", func(r *Row) { r.WER = ptr(1.5) }, "wer"},
		{"wer without workload", func(r *Row) { r.WER = ptr(0.1); r.UE = nil; r.Server = "" }, "workload"},
		{"unordered ce", func(r *Row) { r.CE = []profile.CEEvent{{T: 5}, {T: 1}} }, "ce"},
	}
	for _, tc := range cases {
		r := telemetryRow(0, 0)
		tc.mut(&r)
		f, err := r.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if f != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, f, tc.field)
		}
	}
}

func TestOfferBackpressure(t *testing.T) {
	// No retrain function: no trigger is configured, so the consumer
	// only drains. Stall it by never starting... instead use capacity 4
	// and a retrain callback that blocks so the consumer pauses.
	block := make(chan struct{})
	p := New(Config{Capacity: 4, RetrainRows: 1}, nil, func(rows []Row, reason string) (*core.TelemetrySummary, error) {
		<-block
		return nil, errors.New("aborted")
	})
	defer func() { close(block); p.Close() }()

	rows := make([]Row, 8)
	for i := range rows {
		rows[i] = telemetryRow(i, 0)
	}
	// First row is consumed and parks the consumer in the blocked
	// retrain; the queue then has full capacity free.
	if n, err := p.Offer(rows[:1]); n != 1 || err != nil {
		t.Fatalf("offer 1: %d, %v", n, err)
	}
	waitFor(t, "consumer to park in retrain", func() bool { return p.Snapshot().QueueDepth == 0 })

	n, err := p.Offer(rows)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow offer: accepted %d, err %v, want ErrQueueFull", n, err)
	}
	if n != 4 {
		t.Errorf("accepted %d rows into a capacity-4 queue, want 4", n)
	}
	st := p.Snapshot()
	if st.Accepted != 5 || st.Dropped != 4 || st.QueueDepth != 4 {
		t.Errorf("accepted/dropped/depth = %d/%d/%d, want 5/4/4", st.Accepted, st.Dropped, st.QueueDepth)
	}
}

// TestQueueDepthNeverNegative races offers against the consumer while a
// sampler snapshots: the reported depth must stay within [0, Capacity]
// on every read, and read 0 once the queue drains.
func TestQueueDepthNeverNegative(t *testing.T) {
	const capacity, offerers, perOfferer = 8, 4, 2000
	p := New(Config{Capacity: capacity}, nil, nil)
	defer p.Close()

	done := make(chan struct{})
	bad := make(chan int64, 1)
	go func() {
		for {
			select {
			case <-done:
				close(bad)
				return
			default:
			}
			if d := p.Snapshot().QueueDepth; d < 0 || d > capacity {
				select {
				case bad <- d:
				default:
				}
			}
		}
	}()
	var wg sync.WaitGroup
	row := []Row{{Workload: "backprop", TREFP: 1.8, TempC: 60, WER: ptr(1e-6)}}
	for range offerers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perOfferer {
				_, _ = p.Offer(row)
			}
		}()
	}
	wg.Wait()
	close(done)
	if d, ok := <-bad; ok {
		t.Fatalf("Snapshot read queue depth %d, want within [0, %d]", d, capacity)
	}
	waitFor(t, "queue to drain", func() bool { return p.Snapshot().QueueDepth == 0 })
	if st := p.Snapshot(); st.Accepted+st.Dropped != offerers*perOfferer {
		t.Fatalf("accepted %d + dropped %d, want %d offered", st.Accepted, st.Dropped, offerers*perOfferer)
	}
}

func TestRowCountTriggerAndBaselineAdoption(t *testing.T) {
	type call struct {
		rows   int
		reason string
	}
	calls := make(chan call, 4)
	p := New(Config{Capacity: 64, RetrainRows: 8}, nil, func(rows []Row, reason string) (*core.TelemetrySummary, error) {
		calls <- call{len(rows), reason}
		return baselineOver(len(rows), 0), nil
	})
	defer p.Close()

	rows := make([]Row, 8)
	for i := range rows {
		rows[i] = telemetryRow(i, 0)
	}
	if _, err := p.Offer(rows); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-calls:
		if c.rows != 8 || c.reason != "rows" {
			t.Fatalf("retrain(%d, %q), want (8, rows)", c.rows, c.reason)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("row-count trigger never fired")
	}
	waitFor(t, "buffer drain", func() bool {
		st := p.Snapshot()
		return st.Retrains == 1 && st.Buffered == 0 && st.TelemetryRows == 0
	})
}

func TestDriftTrigger(t *testing.T) {
	reasons := make(chan string, 4)
	// Baseline at shift 0; live rows at shift 10 — disjoint trefp bins,
	// drift score 1. MinDriftRows gates the trigger until 16 rows.
	p := New(Config{Capacity: 64, DriftThreshold: 0.5, MinDriftRows: 16}, baselineOver(32, 0),
		func(rows []Row, reason string) (*core.TelemetrySummary, error) {
			reasons <- reason
			return baselineOver(len(rows), 10), nil
		})
	defer p.Close()

	for i := 0; i < 15; i++ {
		if _, err := p.Offer([]Row{telemetryRow(i, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "15 rows buffered", func() bool { return p.Snapshot().Buffered == 15 })
	if st := p.Snapshot(); st.Retrains != 0 {
		t.Fatalf("drift trigger fired below MinDriftRows (score %g)", st.DriftScore)
	}
	if st := p.Snapshot(); st.DriftScore < 0.5 || st.DriftFeature != "trefp" {
		t.Fatalf("drift score %g on %q, want >= 0.5 on trefp", st.DriftScore, st.DriftFeature)
	}
	if _, err := p.Offer([]Row{telemetryRow(15, 10)}); err != nil {
		t.Fatal(err)
	}
	select {
	case reason := <-reasons:
		if reason != "drift" {
			t.Fatalf("retrain reason %q, want drift", reason)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drift trigger never fired")
	}
	// The adopted baseline matches the live distribution now: score
	// resets and the trigger goes quiet.
	waitFor(t, "score reset", func() bool { return p.Snapshot().DriftScore == 0 })
	for i := 0; i < 32; i++ {
		if _, err := p.Offer([]Row{telemetryRow(i, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "32 rows buffered", func() bool { return p.Snapshot().Buffered == 32 })
	if st := p.Snapshot(); st.Retrains != 1 {
		t.Errorf("retrained again (%d) though live matches the new baseline (score %g)",
			st.Retrains, st.DriftScore)
	}
}

func TestRetrainFailureRequeuesRows(t *testing.T) {
	fail := errors.New("trainer exploded")
	p := New(Config{Capacity: 64}, nil, func(rows []Row, reason string) (*core.TelemetrySummary, error) {
		return nil, fail
	})
	defer p.Close()
	rows := make([]Row, 4)
	for i := range rows {
		rows[i] = telemetryRow(i, 0)
	}
	if _, err := p.Offer(rows); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rows buffered", func() bool { return p.Snapshot().Buffered == 4 })
	if _, err := p.RetrainNow(); !errors.Is(err, fail) {
		t.Fatalf("manual retrain error = %v, want the trainer's", err)
	}
	st := p.Snapshot()
	if st.Buffered != 4 || st.RetrainFailures != 1 || st.Retrains != 0 {
		t.Errorf("after failure: buffered %d, failures %d, retrains %d; want 4/1/0",
			st.Buffered, st.RetrainFailures, st.Retrains)
	}
	// The telemetry window survives the failure: drift state intact.
	if st.TelemetryRows != 4 {
		t.Errorf("telemetry rows %d after failed retrain, want 4", st.TelemetryRows)
	}
}

func TestRetrainNowBusy(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	p := New(Config{Capacity: 16}, nil, func(rows []Row, reason string) (*core.TelemetrySummary, error) {
		close(entered)
		<-release
		return nil, nil
	})
	defer p.Close()
	go func() { _, _ = p.RetrainNow() }() // parks in the callback
	<-entered
	if _, err := p.RetrainNow(); !errors.Is(err, ErrRetrainInProgress) {
		t.Errorf("concurrent manual retrain: %v, want ErrRetrainInProgress", err)
	}
	close(release)
}

func TestClosedPipeline(t *testing.T) {
	p := New(Config{Capacity: 4}, nil, nil)
	p.Close()
	if _, err := p.Offer([]Row{telemetryRow(0, 0)}); !errors.Is(err, ErrClosed) {
		t.Errorf("offer after close: %v, want ErrClosed", err)
	}
	if _, err := p.RetrainNow(); !errors.Is(err, ErrClosed) {
		t.Errorf("retrain after close: %v, want ErrClosed", err)
	}
}

// TestOmittedVDDDefaultsInSketch: a row omitting vdd (zero value) must
// sketch at the campaign default voltage — the same default the dataset
// conversion applies — not at 0, which would read as a maximal voltage
// excursion and fake drift on every default-voltage client.
func TestOmittedVDDDefaultsInSketch(t *testing.T) {
	// Baseline rows at the campaign voltage, live rows with vdd omitted.
	rows := make([]core.UESample, 16)
	for i := range rows {
		r := telemetryRow(i, 0)
		rows[i] = core.UESample{
			Server: r.Server, TREFP: r.TREFP, VDD: dram.MinVDD, TempC: r.TempC,
			CEFeatures: profile.CEFeatures(r.CE), UE: *r.UE,
		}
	}
	p := New(Config{Capacity: 64}, core.SummarizeTelemetry(rows),
		func([]Row, string) (*core.TelemetrySummary, error) {
			return nil, errors.New("no retrain expected")
		})
	defer p.Close()

	for i := 0; i < 16; i++ {
		row := telemetryRow(i, 0)
		row.VDD = 0 // omitted on the wire
		if _, err := p.Offer([]Row{row}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "rows buffered", func() bool { return p.Snapshot().Buffered == 16 })
	if st := p.Snapshot(); st.DriftFeature == "vdd" && st.DriftScore > 0.5 {
		t.Fatalf("omitted vdd read as drift: score %g on %q", st.DriftScore, st.DriftFeature)
	}
}

// TestDriftScoreDeterministicAcrossWorkers is the engine-workers half of
// the sketch determinism contract (the shard half lives in
// internal/stats): per-shard telemetry summaries built on the engine's
// pool at several worker counts, merged in shard order, must score the
// identical drift against a fixed baseline.
func TestDriftScoreDeterministicAcrossWorkers(t *testing.T) {
	const n, shards = 512, 16
	baseline := baselineOver(64, 0)
	build := func(workers int) *core.TelemetrySummary {
		parts, err := engine.Map(shards, func(sh int) (*core.TelemetrySummary, error) {
			sum := core.NewTelemetrySummary()
			var vec [core.NumTelemetryFeatures]float64
			for i := sh; i < n; i += shards {
				r := telemetryRow(i, 0.3)
				ce := profile.CEFeatures(r.CE)
				sum.Observe(core.TelemetryVectorInto(vec[:0], r.TREFP, r.VDD, r.TempC, ce))
			}
			return sum, nil
		}, engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		merged := core.NewTelemetrySummary()
		for _, part := range parts {
			for i := range merged.Sketches {
				merged.Sketches[i].Merge(&part.Sketches[i])
			}
			merged.Rows += part.Rows
		}
		return merged
	}
	ref, _ := baseline.Drift(build(1))
	for _, workers := range []int{2, 4, 8} {
		got, _ := baseline.Drift(build(workers))
		if got != ref {
			t.Errorf("workers=%d: drift %v != %v at workers=1", workers, got, ref)
		}
	}
}

// BenchmarkIngestAppend measures the consumer's per-row cost: buffer
// append, live-sketch update and drift rescore — the ingest hot path
// between the HTTP handler and the retrain trigger.
func BenchmarkIngestAppend(b *testing.B) {
	p := New(Config{Capacity: 1}, baselineOver(256, 0), nil)
	defer p.Close()
	rows := make([]Row, 64)
	for i := range rows {
		rows[i] = telemetryRow(i, 0.1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.buf) >= 4096 {
			p.buf = p.buf[:0] // bound memory; keeps the append warm
		}
		p.absorb(&rows[i%len(rows)])
	}
}
