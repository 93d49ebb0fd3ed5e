// Package cluster is the horizontal-scale tier of the serving layer: a
// front router that spreads prediction traffic across N dramserve
// backends. One dramserve answers a warm query in ~1 ms — far inside the
// paper's 300 ms budget — but a single process is a single point of
// failure and a single machine's worth of throughput; the ROADMAP's
// "millions of users" target and the post-2019 fleet-scale literature
// (DRAM failure prediction as an online AIOps service) both demand a tier
// that scales out and survives node loss.
//
// The router (cmd/dramrouter) serves the /v2 wire format unchanged, so
// any /v2 client — cmd/dramfleet included — uses it as a drop-in -addr:
//
//	POST /v2/predict   routed, retried and hedged across the pool
//	GET  /healthz      pool health, per-backend identity, fingerprint skew
//	GET  /metrics      routing counters (retries, hedges, ejections, skew)
//
// Four mechanisms make the pool act like one reliable server:
//
//   - Consistent-hash model ownership. Every backend loads the same
//     artifact, but models are trained lazily per (target, kind, input
//     set), and each trained model and profile cache occupies memory and
//     warmup time. The router hashes that triple — the same key the
//     backend's model registry uses — onto a virtual-node ring, so each
//     model's traffic concentrates on one owner: N backends hold ~1/N of
//     the model set warm apiece instead of N copies of everything. A
//     multi-target query is split per owner and the answers are merged; a
//     batch fans out per item. Ownership is a performance hint, not a
//     partition: any backend can answer any key, which is what makes
//     failover below safe.
//
//   - Health-checked pool membership. A prober hits every backend's
//     /healthz on an interval, decoding the serve.HealthResponse probing
//     contract. FailAfter consecutive failures (probe or live traffic)
//     eject a backend from the ring walk; the next successful probe
//     re-admits it. Ejection only re-routes the ejected backend's keys —
//     consistent hashing keeps everyone else's caches warm.
//
//   - Bounded retry and hedging. A sub-request tries the key's owner
//     first, then escalates through ring successors: transport errors and
//     5xx responses retry immediately (Attempts distinct backends max),
//     and a response slower than HedgeAfter launches a duplicate to the
//     next candidate, first answer wins — a slow shard costs one hedge,
//     not a tail-latency spike. 4xx responses never retry: a validation
//     error is the query's fault and is passed through verbatim.
//
//   - Cross-node artifact consistency. Every /v2 response and /healthz
//     body carries the backend's artifact fingerprint (the content hash
//     introduced with the generation machinery). The router refuses to
//     merge sub-responses bearing different fingerprints — during a
//     rolling artifact rollout a query either gets all its answers from
//     the old artifact or all from the new one, never a mix — and
//     surfaces pool-wide skew in /healthz (status "skew", HTTP 503) and
//     /metrics long before a mixed response is ever attempted.
//
// The router holds no model state of its own: it is stateless above the
// pool, so multiple routers can front the same backends.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// Defaults for the zero Options fields.
const (
	// DefaultProbeInterval is how often every backend's /healthz is probed.
	DefaultProbeInterval = 2 * time.Second
	// DefaultProbeTimeout bounds one health probe round trip.
	DefaultProbeTimeout = time.Second
	// DefaultFailAfter is how many consecutive failures eject a backend.
	DefaultFailAfter = 3
	// DefaultHedgeAfter is how long a sub-request may run before a hedged
	// duplicate is launched at the next candidate backend.
	DefaultHedgeAfter = 100 * time.Millisecond
	// DefaultAttempts is how many distinct backends one sub-request may
	// try (the owner plus retry/hedge successors).
	DefaultAttempts = 3
	// DefaultRequestTimeout bounds one proxied attempt round trip.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultReplicas is the virtual-node count per backend on the ring.
	DefaultReplicas = 64
)

// Options configures a Router.
type Options struct {
	// Backends are the dramserve base URLs (e.g. "http://10.0.0.1:8080").
	// A bare host:port gets the http scheme; trailing slashes are
	// stripped. At least one is required.
	Backends []string
	// Client issues probes and proxied requests; default a transport tuned
	// for many keep-alive connections to few hosts. Deadlines come from
	// per-request contexts, so the client needs no global timeout.
	Client *http.Client
	// RequestTimeout bounds each proxied attempt (0 means
	// DefaultRequestTimeout; negative disables).
	RequestTimeout time.Duration
	// ProbeInterval and ProbeTimeout shape the health prober (0 means the
	// defaults; ProbeInterval < 0 disables active probing — tests drive
	// probes by hand).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailAfter is the consecutive-failure threshold (probe or traffic)
	// that ejects a backend; 0 means DefaultFailAfter.
	FailAfter int
	// HedgeAfter is the hedging delay (0 means DefaultHedgeAfter;
	// negative disables hedging).
	HedgeAfter time.Duration
	// Attempts bounds the distinct backends one sub-request tries; 0 means
	// DefaultAttempts. Always capped at the pool size.
	Attempts int
	// Replicas is the virtual-node count per backend; 0 means
	// DefaultReplicas.
	Replicas int
	// Context, when set, is the base context; its cancellation stops the
	// router like Close does.
	Context context.Context
	// Logf reports pool transitions (ejections, re-admissions); nil
	// discards them.
	Logf func(format string, args ...any)
}

// Router routes /v2 prediction traffic across a health-checked pool of
// dramserve backends. The caller must Close it.
type Router struct {
	backends []*backendState
	ring     *ring
	client   *http.Client
	metrics  *metrics

	reqTimeout time.Duration
	hedgeAfter time.Duration
	attempts   int
	failAfter  int64
	probeEvery time.Duration
	probeLimit time.Duration
	logf       func(string, ...any)

	ctx       context.Context
	cancel    context.CancelFunc
	proberWG  sync.WaitGroup
	closeOnce sync.Once
	start     time.Time
}

// New builds a Router over the backend pool and starts its health prober.
func New(opts Options) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	addrs := make([]string, len(opts.Backends))
	seen := map[string]bool{}
	for i, a := range opts.Backends {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a == "" {
			return nil, fmt.Errorf("cluster: empty backend address")
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		if seen[a] {
			return nil, fmt.Errorf("cluster: duplicate backend %s", a)
		}
		seen[a] = true
		addrs[i] = a
	}
	base := opts.Context
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			// The router funnels the whole fleet's traffic onto a handful
			// of hosts; the transport default of 2 idle conns per host
			// would churn connections under any real load.
			MaxIdleConns:        0,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	rt := &Router{
		client:     client,
		metrics:    &metrics{},
		reqTimeout: defDur(opts.RequestTimeout, DefaultRequestTimeout),
		hedgeAfter: defDur(opts.HedgeAfter, DefaultHedgeAfter),
		attempts:   defInt(opts.Attempts, DefaultAttempts),
		failAfter:  int64(defInt(opts.FailAfter, DefaultFailAfter)),
		probeEvery: defDur(opts.ProbeInterval, DefaultProbeInterval),
		probeLimit: defDur(opts.ProbeTimeout, DefaultProbeTimeout),
		logf:       opts.Logf,
		ctx:        ctx,
		cancel:     cancel,
		start:      time.Now(),
	}
	if rt.logf == nil {
		rt.logf = func(string, ...any) {}
	}
	if rt.attempts > len(addrs) {
		rt.attempts = len(addrs)
	}
	rt.backends = make([]*backendState, len(addrs))
	for i, a := range addrs {
		rt.backends[i] = newBackendState(a)
	}
	rt.ring = newRing(addrs, defInt(opts.Replicas, DefaultReplicas))
	if rt.probeEvery > 0 {
		rt.proberWG.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

func defDur(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	return v
}

func defInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// Close stops the prober and cancels in-flight proxied requests.
func (rt *Router) Close() error {
	rt.closeOnce.Do(rt.cancel)
	rt.proberWG.Wait()
	return nil
}

// Handler returns the router's HTTP surface. The /v2 wire format —
// including the method contract (405 + Allow, 415 on non-JSON POSTs) and
// the structured error shape — is dramserve's own (internal/httpapi), so
// clients cannot tell a router from a single backend.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(path, method string, h http.HandlerFunc) {
		mux.HandleFunc(path, rt.metrics.requests.Counted(path, httpapi.Endpoint(method, httpapi.WriteError, h)))
	}
	route("/v2/predict", http.MethodPost, rt.handlePredict)
	route("/healthz", http.MethodGet, rt.handleHealthz)
	route("/metrics", http.MethodGet, httpapi.MetricsHandler(rt.renderMetrics))
	return mux
}

// candidates returns the backends a sub-request for key may try, in ring
// order starting at the owner: healthy backends only, falling back to the
// full ring walk when the prober has ejected everyone (trying a probably-
// dead backend beats refusing outright — the request-level retry still
// bounds the damage).
func (rt *Router) candidates(key string) []*backendState {
	walk := rt.ring.walk(key, rt.ring.n)
	out := make([]*backendState, 0, rt.attempts)
	for _, i := range walk {
		if b := rt.backends[i]; b.healthy.Load() {
			out = append(out, b)
			if len(out) == rt.attempts {
				return out
			}
		}
	}
	if len(out) > 0 {
		return out
	}
	for _, i := range walk {
		out = append(out, rt.backends[i])
		if len(out) == rt.attempts {
			break
		}
	}
	return out
}
