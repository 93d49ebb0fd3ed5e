// Package ingest is the streaming telemetry intake and continuous-
// retraining pipeline: the data loop the paper leaves open ("the model
// is periodically updated based on new characterization results")
// closed in process. Fielded servers push CE-telemetry windows and
// labeled WER/PUE observations into a bounded queue; a single consumer
// appends them to a pending buffer, tracks the live feature
// distribution against the serving artifact's training summary
// (core.TelemetrySummary), and — on a drift threshold, a row-count
// threshold, or a manual trigger — hands the buffered rows to a
// retrain callback that rebuilds, persists and republishes the
// dataset. The serving layer (internal/serve) supplies that callback
// and exposes the pipeline as POST /v2/ingest and POST /v2/retrain.
//
// Backpressure is explicit and bounded everywhere: Offer never blocks
// and never buffers beyond Capacity — when the queue is full the
// remainder of the batch is refused with ErrQueueFull (HTTP 429 +
// Retry-After upstream), and during a retrain the queue keeps
// absorbing up to its capacity while consumption pauses. Nothing in
// the pipeline allocates proportionally to the refused load.
package ingest

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/profile"
)

// Sentinel errors surfaced on the ingest endpoints.
var (
	// ErrQueueFull reports that the bounded queue had no room for part
	// of an offered batch (the accepted prefix is already queued).
	ErrQueueFull = errors.New("ingest: queue full")
	// ErrRetrainInProgress reports a manual retrain colliding with one
	// already running.
	ErrRetrainInProgress = errors.New("ingest: retrain already in progress")
	// ErrClosed reports an Offer or RetrainNow after Close.
	ErrClosed = errors.New("ingest: pipeline closed")
)

// Row is one ingested observation: an operating point plus at least one
// of a CE telemetry window with a UE outcome label, a measured WER, or
// a measured PUE. It is the same shape the fleet simulator's queries
// carry, so a fleet stream replays straight into the loop.
type Row struct {
	// Server identifies the observed machine; required with a UE label
	// (it is the leave-one-server-out cross-validation group).
	Server string `json:"server,omitempty"`
	// Workload labels the running benchmark; required with a WER or PUE
	// label (those rows need the workload's program features).
	Workload string `json:"workload,omitempty"`
	// TREFP, VDD, TempC are the operating point. VDD zero defaults to
	// the campaign voltage downstream, matching /v2/predict.
	TREFP float64 `json:"trefp"`
	VDD   float64 `json:"vdd,omitempty"`
	TempC float64 `json:"temp_c"`
	// Rank attributes a WER observation to a DRAM rank.
	Rank int `json:"rank,omitempty"`
	// CE is the correctable-error event window (profile.CEEvent).
	CE []profile.CEEvent `json:"ce,omitempty"`
	// UE labels the window's outcome (1: an uncorrectable error followed
	// within the horizon); WER and PUE are measured rates. Pointers so
	// "absent" and "zero" stay distinct under strict decoding.
	UE  *float64 `json:"ue,omitempty"`
	WER *float64 `json:"wer,omitempty"`
	PUE *float64 `json:"pue,omitempty"`
}

// Validate checks one row's shape and ranges, returning the offending
// field name alongside the error (the serving layer's structured-error
// contract). The workload label's existence is the caller's concern —
// this package does not depend on the benchmark registry.
func (r *Row) Validate() (field string, err error) {
	if r.TREFP <= 0 || math.IsNaN(r.TREFP) || math.IsInf(r.TREFP, 0) {
		return "trefp", fmt.Errorf("trefp %v out of range", r.TREFP)
	}
	if math.IsNaN(r.TempC) || math.IsInf(r.TempC, 0) {
		return "temp_c", fmt.Errorf("temp_c %v out of range", r.TempC)
	}
	if r.VDD < 0 || math.IsNaN(r.VDD) || math.IsInf(r.VDD, 0) {
		return "vdd", fmt.Errorf("vdd %v out of range", r.VDD)
	}
	if r.Rank < 0 || r.Rank >= dram.NumRanks {
		return "rank", fmt.Errorf("rank %d out of range [0, %d)", r.Rank, dram.NumRanks)
	}
	if err := profile.ValidateCEEvents(r.CE); err != nil {
		return "ce", err
	}
	if r.UE == nil && r.WER == nil && r.PUE == nil {
		return "", errors.New("row carries no label (one of ue, wer, pue required)")
	}
	if r.UE != nil {
		if v := *r.UE; v < 0 || v > 1 || math.IsNaN(v) {
			return "ue", fmt.Errorf("ue %v out of range [0, 1]", v)
		}
		if r.Server == "" {
			return "server", errors.New("server required with a ue label")
		}
	}
	if r.WER != nil {
		if v := *r.WER; v < 0 || v > 1 || math.IsNaN(v) {
			return "wer", fmt.Errorf("wer %v out of range [0, 1]", v)
		}
	}
	if r.PUE != nil {
		if v := *r.PUE; v < 0 || v > 1 || math.IsNaN(v) {
			return "pue", fmt.Errorf("pue %v out of range [0, 1]", v)
		}
	}
	if (r.WER != nil || r.PUE != nil) && r.Workload == "" {
		return "workload", errors.New("workload required with a wer or pue label")
	}
	return "", nil
}

// Config sizes the pipeline and its retrain triggers.
type Config struct {
	// Capacity bounds the intake queue in rows; an offer beyond it is
	// refused with ErrQueueFull. Default 4096.
	Capacity int
	// RetrainRows triggers a retrain when this many rows are buffered.
	// 0 disables the row-count trigger.
	RetrainRows int
	// DriftThreshold triggers a retrain when the live telemetry
	// distribution's drift score against the training baseline reaches
	// it (total-variation distance, in (0, 1]). 0 disables the drift
	// trigger.
	DriftThreshold float64
	// MinDriftRows is the minimum number of buffered telemetry rows
	// before the drift trigger may fire — small windows drift by
	// sampling noise alone. Default 64.
	MinDriftRows int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.MinDriftRows <= 0 {
		c.MinDriftRows = 64
	}
	return c
}

// RetrainFunc rebuilds and republishes the serving dataset with the
// drained rows appended, returning the new telemetry baseline for the
// drift detector. reason is "rows", "drift" or "manual". An error
// leaves the rows owned by the pipeline (they return to the buffer for
// the next attempt).
type RetrainFunc func(rows []Row, reason string) (*core.TelemetrySummary, error)

// Stats is a point-in-time snapshot of the pipeline counters. Its JSON
// form is the ingest section of dramserve's GET /v2/stats.
type Stats struct {
	// Accepted and Dropped count rows offered over the pipeline's
	// lifetime that were enqueued vs. rejected by backpressure;
	// QueueDepth is the rows currently queued ahead of the consumer.
	Accepted   int64 `json:"accepted"`
	Dropped    int64 `json:"dropped"`
	QueueDepth int64 `json:"queue_depth"`
	// Buffered counts rows consumed but not yet folded into a retrain;
	// TelemetryRows is the UE-labeled subset driving the drift score.
	Buffered      int64 `json:"buffered_rows"`
	TelemetryRows int64 `json:"telemetry_rows"`
	// DriftScore is the live distribution's max per-feature
	// total-variation distance against the training baseline (0 when no
	// baseline or no telemetry yet); DriftFeature names the feature
	// attaining it.
	DriftScore   float64 `json:"drift_score"`
	DriftFeature string  `json:"drift_feature,omitempty"`
	// Retrains and RetrainFailures count completed and failed retrain
	// attempts.
	Retrains        int64 `json:"retrains"`
	RetrainFailures int64 `json:"retrain_failures"`
}

// Pipeline is the bounded-queue intake and retrain driver. One consumer
// goroutine owns the buffer; HTTP handlers call Offer, RetrainNow and
// Snapshot concurrently.
type Pipeline struct {
	cfg     Config
	retrain RetrainFunc

	ch       chan Row
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	closed   atomic.Bool

	accepted atomic.Int64
	dropped  atomic.Int64

	retrains        atomic.Int64
	retrainFailures atomic.Int64

	// retrainMu serializes retrains: the consumer's background triggers
	// and the manual RetrainNow contend on it, never stack.
	retrainMu sync.Mutex

	mu        sync.Mutex
	buf       []Row
	baseline  *core.TelemetrySummary
	live      *core.TelemetrySummary
	telemRows int64
	score     float64
	scoreFeat string
	vec       [core.NumTelemetryFeatures]float64
	ce        [profile.NumCEFeatures]float64
}

// New starts a pipeline. baseline is the serving artifact's training
// telemetry summary (nil when the artifact has no telemetry rows: the
// drift trigger stays dormant until the first retrain establishes one).
// retrain may be nil only if no trigger can ever fire.
func New(cfg Config, baseline *core.TelemetrySummary, retrain RetrainFunc) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:      cfg,
		retrain:  retrain,
		ch:       make(chan Row, cfg.Capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		baseline: baseline,
		live:     core.NewTelemetrySummary(),
	}
	go p.run()
	return p
}

// Close stops the consumer. Queued rows not yet consumed are dropped;
// buffered rows are abandoned with the pipeline.
func (p *Pipeline) Close() {
	p.closed.Store(true)
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// Offer enqueues rows without blocking. It returns how many rows were
// accepted; when the queue fills mid-batch the remainder is counted
// dropped and the error is ErrQueueFull — the caller answers 429 and
// retries later. Rows must already be validated.
func (p *Pipeline) Offer(rows []Row) (int, error) {
	if p.closed.Load() {
		return 0, ErrClosed
	}
	for i := range rows {
		select {
		case p.ch <- rows[i]:
			p.accepted.Add(1)
		default:
			p.dropped.Add(int64(len(rows) - i))
			return i, ErrQueueFull
		}
	}
	return len(rows), nil
}

// RetrainNow drains the buffered rows into a retrain immediately,
// returning the number of rows handed to it. A retrain already running
// answers ErrRetrainInProgress; a manual retrain with nothing buffered
// still runs (republishing is a no-op when the dataset is unchanged).
func (p *Pipeline) RetrainNow() (int, error) {
	if p.closed.Load() {
		return 0, ErrClosed
	}
	if !p.retrainMu.TryLock() {
		return 0, ErrRetrainInProgress
	}
	defer p.retrainMu.Unlock()
	return p.retrainHeld("manual")
}

// Snapshot reads the counters.
func (p *Pipeline) Snapshot() Stats {
	p.mu.Lock()
	st := Stats{
		Buffered:      int64(len(p.buf)),
		TelemetryRows: p.telemRows,
		DriftScore:    p.score,
		DriftFeature:  p.scoreFeat,
	}
	p.mu.Unlock()
	st.Accepted = p.accepted.Load()
	st.Dropped = p.dropped.Load()
	st.QueueDepth = int64(len(p.ch))
	st.Retrains = p.retrains.Load()
	st.RetrainFailures = p.retrainFailures.Load()
	return st
}

// run is the single consumer: it owns buffer growth and fires the
// background triggers. Running the retrain inline here is what pauses
// consumption during a rebuild — the channel keeps absorbing up to
// Capacity and overflow backpressures at Offer, exactly the bounded
// contract.
func (p *Pipeline) run() {
	defer close(p.done)
	for {
		select {
		case row := <-p.ch:
			p.absorb(&row)
			if reason := p.trigger(); reason != "" {
				p.retrainMu.Lock()
				// Re-check under the lock: a manual retrain may have
				// drained the buffer while we waited.
				if p.trigger() == reason {
					// Failures are counted and the rows requeued; the
					// next consumed row re-fires the trigger.
					_, _ = p.retrainHeld(reason)
				}
				p.retrainMu.Unlock()
			}
		case <-p.stop:
			return
		}
	}
}

// absorb appends one consumed row to the pending buffer and folds
// UE-labeled telemetry into the live distribution sketch.
func (p *Pipeline) absorb(row *Row) {
	p.mu.Lock()
	p.buf = append(p.buf, *row)
	if row.UE != nil {
		p.observeTelemetry(row)
	}
	p.mu.Unlock()
}

// observeTelemetry folds one telemetry row into the live summary and
// refreshes the cached drift score. Caller holds p.mu.
func (p *Pipeline) observeTelemetry(row *Row) {
	vdd := row.VDD
	if vdd == 0 {
		// The same default the dataset conversion applies: a row omitting
		// vdd must not read as a voltage excursion to the drift detector.
		vdd = dram.MinVDD
	}
	profile.CEFeaturesInto(p.ce[:], row.CE)
	p.live.Observe(core.TelemetryVectorInto(p.vec[:0], row.TREFP, vdd, row.TempC, p.ce[:]))
	p.telemRows++
	if p.baseline != nil {
		p.score, p.scoreFeat = p.baseline.Drift(p.live)
	}
}

// trigger names the background retrain trigger currently satisfied, or
// "". The drift trigger needs a baseline and a minimum live sample.
func (p *Pipeline) trigger() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.RetrainRows > 0 && len(p.buf) >= p.cfg.RetrainRows {
		return "rows"
	}
	if p.cfg.DriftThreshold > 0 && p.baseline != nil &&
		p.telemRows >= int64(p.cfg.MinDriftRows) && p.score >= p.cfg.DriftThreshold {
		return "drift"
	}
	return ""
}

// retrainHeld runs one retrain with retrainMu held: drain the buffer,
// call the callback, then either adopt the new baseline or return the
// rows for the next attempt.
func (p *Pipeline) retrainHeld(reason string) (int, error) {
	p.mu.Lock()
	rows := p.buf
	p.buf = nil
	p.mu.Unlock()

	summary, err := p.retrain(rows, reason)
	if err != nil {
		p.mu.Lock()
		// Rows consumed during the failed attempt stay behind ours.
		p.buf = append(rows, p.buf...)
		p.mu.Unlock()
		p.retrainFailures.Add(1)
		return 0, err
	}
	p.retrains.Add(1)
	p.mu.Lock()
	p.baseline = summary
	// The published artifact now includes every drained telemetry row,
	// so the live window restarts from the rows that arrived since.
	p.live = core.NewTelemetrySummary()
	p.telemRows = 0
	p.score, p.scoreFeat = 0, ""
	remaining := p.buf
	p.mu.Unlock()
	for i := range remaining {
		if remaining[i].UE != nil {
			p.mu.Lock()
			p.observeTelemetry(&remaining[i])
			p.mu.Unlock()
		}
	}
	return len(rows), nil
}
