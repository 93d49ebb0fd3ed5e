package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
)

// backendState is the router's live view of one dramserve backend: health,
// consecutive-failure count, and the artifact identity its last successful
// probe reported. Health transitions are driven by both the periodic
// prober and live traffic (a proxied attempt that fails at the transport
// level counts toward ejection; one that reaches the backend resets the
// streak), but re-admission of an ejected backend comes only from a
// successful probe — ejected backends receive no routed traffic to prove
// themselves with (except when the whole pool is ejected).
type backendState struct {
	addr string // normalized base URL

	healthy     atomic.Bool
	consecFails atomic.Int64

	// generation and fingerprint are the artifact identity of the last
	// successful probe; fingerprint "" means never probed yet.
	generation  atomic.Int64
	fingerprint atomic.Value // string
	lastErr     atomic.Value // string

	subOK  httpapi.Counter // proxied attempts answered (any HTTP status)
	subErr httpapi.Counter // proxied attempts failed in transport or with 5xx
}

func newBackendState(addr string) *backendState {
	b := &backendState{addr: addr}
	b.healthy.Store(true) // innocent until the prober proves otherwise
	b.fingerprint.Store("")
	b.lastErr.Store("")
	return b
}

func (b *backendState) fp() string { return b.fingerprint.Load().(string) }

// noteFailure records one failed probe or transport-failed attempt and
// ejects the backend once the consecutive streak reaches failAfter.
// Returns true on the healthy→ejected transition (counted once).
func (b *backendState) noteFailure(err error, failAfter int64) bool {
	b.lastErr.Store(err.Error())
	if b.consecFails.Add(1) >= failAfter {
		return b.healthy.CompareAndSwap(true, false)
	}
	return false
}

// noteSuccess resets the failure streak and re-admits the backend.
// Returns true on the ejected→healthy transition (counted once).
func (b *backendState) noteSuccess() bool {
	b.consecFails.Store(0)
	b.lastErr.Store("")
	return b.healthy.CompareAndSwap(false, true)
}

// probeLoop probes every backend each interval until the router closes.
// Rounds do not overlap: a slow pool is probed as fast as it answers, not
// piled onto.
func (rt *Router) probeLoop() {
	defer rt.proberWG.Done()
	// An immediate first round fills in fingerprints and catches
	// already-dead backends before the first tick.
	rt.probeAll()
	t := time.NewTicker(rt.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes the whole pool concurrently and waits for the round.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			rt.probe(b)
		}(b)
	}
	wg.Wait()
}

// probe health-checks one backend: GET /healthz decoded as the
// serve.HealthResponse probing contract, recording artifact identity on
// success and advancing the ejection streak on failure.
func (rt *Router) probe(b *backendState) {
	rt.metrics.probes.Inc()
	err := rt.probeOnce(b)
	if err == nil {
		if b.noteSuccess() {
			rt.metrics.readmissions.Inc()
			rt.logf("backend %s re-admitted", b.addr)
		}
		return
	}
	rt.metrics.probeFailures.Inc()
	if b.noteFailure(err, rt.failAfter) {
		rt.metrics.ejections.Inc()
		rt.logf("backend %s ejected: %v", b.addr, err)
	}
}

func (rt *Router) probeOnce(b *backendState) error {
	ctx, cancel := context.WithTimeout(rt.ctx, rt.probeLimit)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, httpapi.MaxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz %s", resp.Status)
	}
	var hr serve.HealthResponse
	if err := json.Unmarshal(data, &hr); err != nil {
		return fmt.Errorf("healthz body: %w", err)
	}
	if hr.Status != "ok" {
		return fmt.Errorf("healthz status %q", hr.Status)
	}
	b.generation.Store(hr.Generation)
	b.fingerprint.Store(hr.Fingerprint)
	return nil
}
