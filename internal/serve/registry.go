package serve

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/profile"
	"repro/internal/workload"
)

// The model registry and the profile cache share one protocol, implemented
// once in fillOnce: a map of lazily-filled entries scoped to one
// generation. The map lock is held only to find-or-create an entry, never
// across the expensive fill, so concurrent first requests for the same key
// block on one fill (singleflight) while requests for other keys proceed —
// and repeat requests are a lock, a map probe and a closed channel read.
//
// Errors are never cached. A failed fill publishes its error to the
// requests already waiting on it (they share the attempt's fate, as any
// singleflight does) and then CLEARS the entry, so the next request starts
// a fresh fill instead of inheriting a stale failure: one transient
// train/profile error must not poison a (target, kind, input set) model or
// a workload profile for the life of the generation. Waiters whose fill
// failed retry the find-or-create a bounded number of times — one of them
// becomes the next creator.

// maxFillAttempts bounds how many failed fills one request will chase
// (as creator or as waiter) before surfacing the error.
const maxFillAttempts = 3

// cacheEntry is one singleflight slot. done closes exactly once, after
// val/err are published under the owning map's lock; introspection
// endpoints read entries under that lock without waiting on done, which is
// why publication happens under it.
type cacheEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// fillOnce is the shared find-or-fill. A miss is counted by the request
// that creates the entry (including a retry after a cleared failure — the
// fill really runs again); requests arriving while a fill is in flight
// block on done and count as hits (they pay nothing). build runs outside
// the lock; stop aborts waiters when the server shuts down.
func fillOnce[K comparable, V any](mu *sync.Mutex, entries map[K]*cacheEntry[V], k K,
	stop <-chan struct{}, hits, misses, failures *httpapi.Counter,
	build func() (V, error)) (V, error) {
	var zero V
	var lastErr error
	for attempt := 0; attempt < maxFillAttempts; attempt++ {
		mu.Lock()
		e, ok := entries[k]
		if !ok {
			e = &cacheEntry[V]{done: make(chan struct{})}
			entries[k] = e
			mu.Unlock()
			misses.Inc()

			v, err := build()
			mu.Lock()
			e.val, e.err = v, err
			if err != nil {
				// Non-sticky: clear the failed entry so follow-up requests
				// re-attempt the fill (and count as misses, not hits).
				if entries[k] == e {
					delete(entries, k)
				}
			}
			mu.Unlock()
			close(e.done)
			if err != nil {
				failures.Inc()
				return zero, err
			}
			return v, nil
		}
		mu.Unlock()
		hits.Inc()
		select {
		case <-e.done:
		case <-stop:
			return zero, errClosed
		}
		if e.err == nil {
			return e.val, nil
		}
		// The fill we joined failed (and cleared itself); go around — this
		// request may become the next creator.
		lastErr = e.err
	}
	return zero, lastErr
}

// modelKey identifies one trained predictor: the registry is keyed on the
// full (target, kind, input set) triple, so a query that needs only one
// target never trains — or pays for — the other's model.
type modelKey struct {
	target core.Target
	kind   core.ModelKind
	set    core.InputSet
}

// modelVal is a trained predictor and how long its fit took. pred is
// non-nil exactly when training succeeded.
type modelVal struct {
	pred     core.Predictor
	trainDur time.Duration
}

// modelRegistry trains and caches predictors per (target, kind, input set).
type modelRegistry struct {
	mu      sync.Mutex
	entries map[modelKey]*cacheEntry[modelVal]
}

func newModelRegistry() *modelRegistry {
	return &modelRegistry{entries: map[modelKey]*cacheEntry[modelVal]{}}
}

// model returns the trained predictor for (target, kind, set) on
// generation g, fitting it through the unified core.Train factory on the
// first request (singleflight; failures are cleared, not cached).
func (s *Server) model(g *generation, target core.Target, kind core.ModelKind, set core.InputSet) (modelVal, error) {
	if err := s.closedErr(); err != nil {
		return modelVal{}, err
	}
	return fillOnce(&g.registry.mu, g.registry.entries, modelKey{target, kind, set}, s.stop,
		&s.metrics.modelHits, &s.metrics.modelMisses, &s.metrics.trainFailures,
		func() (modelVal, error) {
			start := time.Now()
			pred, err := s.train(g.ds, target, kind, set, s.workers)
			dur := time.Since(start)
			s.metrics.trainSeconds.Observe(dur)
			if err != nil {
				return modelVal{}, err
			}
			return modelVal{pred: pred, trainDur: dur}, nil
		})
}

// trainedModel describes one registry entry for /v1/models.
type trainedModel struct {
	Kind     core.ModelKind `json:"kind"`
	InputSet int            `json:"input_set"`
	Target   string         `json:"target"`
	TrainMS  float64        `json:"train_ms"`
}

// trained snapshots the generation's ready entries.
func (s *Server) trained(g *generation) []trainedModel {
	g.registry.mu.Lock()
	defer g.registry.mu.Unlock()
	var out []trainedModel
	for k, e := range g.registry.entries {
		if e.val.pred != nil {
			out = append(out, trainedModel{k.kind, int(k.set), string(k.target),
				float64(e.val.trainDur.Microseconds()) / 1e3})
		}
	}
	return out
}

// profileKey identifies one cached workload profile.
type profileKey struct {
	label string
	size  workload.Size
	seed  uint64
}

// profileCache caches profile builds so repeat queries for the same
// workload skip the profiling pass entirely.
type profileCache struct {
	mu      sync.Mutex
	entries map[profileKey]*cacheEntry[*profile.Result]
}

func newProfileCache() *profileCache {
	return &profileCache{entries: map[profileKey]*cacheEntry[*profile.Result]{}}
}

// profileFor resolves the features of a workload on generation g, building
// and caching the profile on first use.
func (s *Server) profileFor(g *generation, spec workload.Spec) (*profile.Result, error) {
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	return fillOnce(&g.profiles.mu, g.profiles.entries, profileKey{spec.Label, g.size, g.seed}, s.stop,
		&s.metrics.profileHits, &s.metrics.profileMisses, &s.metrics.profileFailures,
		func() (*profile.Result, error) {
			start := time.Now()
			res, err := s.buildProfile(spec, g.size, g.seed)
			s.metrics.profileSeconds.Observe(time.Since(start))
			return res, err
		})
}

// profiledLabels lists the labels with a ready profile on generation g.
func (s *Server) profiledLabels(g *generation) map[string]bool {
	g.profiles.mu.Lock()
	defer g.profiles.mu.Unlock()
	out := map[string]bool{}
	for k, e := range g.profiles.entries {
		if e.val != nil {
			out[k.label] = true
		}
	}
	return out
}
