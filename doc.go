// Package repro is a full reproduction of "Workload-Aware DRAM Error
// Prediction using Machine Learning" (Mukhanov et al., IISWC 2019) as a
// pure-Go simulation stack.
//
// The original study characterizes DRAM error behaviour on a real ARMv8
// X-Gene2 server with 72 DDR3 chips operating under relaxed refresh period
// and lowered supply voltage at controlled temperatures, then trains
// machine-learning models to predict the word error rate (WER) and the
// crash probability (PUE) of arbitrary workloads from program-inherent
// features. This repository rebuilds every layer of that experiment in
// software:
//
//   - internal/engine  — deterministic parallel job executor: every
//     campaign-shaped loop (characterization runs, profiling passes,
//     CV folds, forest tree fits) fans out over a bounded worker pool
//     with job-keyed RNG derivation, so parallel results are
//     bit-identical to sequential ones
//   - internal/dram    — mechanistic DRAM reliability simulator (weak-cell
//     retention tails, variable retention time, true/anti cells,
//     neighbour-row disturbance, bitline-coupled pairs)
//   - internal/ecc     — real Hamming(72,64) SECDED decode (CE/UE/SDC)
//   - internal/memsys  — 8-core cache hierarchy and 4-channel MCU model
//   - internal/workload— the benchmark suite as real algorithms
//   - internal/profile — Treuse/HDP/249-feature extraction
//   - internal/thermal — PID-controlled DIMM thermal testbed
//   - internal/xgene   — the server platform (SLIMpro, crash-on-UE)
//   - internal/ml      — KNN, ε-SVR and random-forest regressors. The
//     inference hot path is allocation-free by contract: the trained
//     forest is fused into one contiguous struct-of-arrays ensemble
//     (parallel feature/cut/child arrays walked by index, all trees in
//     one arena), kNN keeps its training matrix flat and draws its
//     candidate scratch from a pool, and golden Float64bits tests pin
//     predictions bit-identical across layout changes
//   - internal/core    — the paper's contribution: the workload-aware
//     DRAM error model behind the unified Predictor API — a Target enum
//     (WER, PUE), one Query/Prediction pair (value, per-rank breakdown,
//     model metadata), and a Train(ds, target, kind, set, workers)
//     factory every cmd, example and serving handler goes through — plus
//     the paper's evaluation protocol
//   - internal/exp     — regeneration of every table and figure
//   - internal/serve   — the deployment layer: a long-running HTTP
//     prediction service over a saved dataset artifact. Two surfaces
//     share one resolve/predict path: /v2/predict (typed per-query
//     target selection, structured {code, field, message} errors,
//     artifact generation/fingerprint on every response) and the legacy
//     /v1 (pinned byte-for-byte by golden wire tests); a singleflight
//     model registry keyed (target, kind, input set) — a PUE-only query
//     never trains a WER model, and errors are never cached (a failed
//     fill clears and retries) — a workload profile cache, one direct
//     Predict call per requested target, a /metrics exposition, and
//     generation-aware hot reload: the dataset and all state derived from
//     it swap atomically on /v1/reload, SIGHUP or a -reload-interval poll,
//     with a persisted artifact fingerprint making unchanged reloads
//     no-ops, and
//     GET /v2/stats exposing per-(target, kind, input set) serving
//     counters so an external client can reconcile its view with the
//     server's (cmd/dramserve is the entry point; API.md documents the
//     wire)
//   - internal/ingest  — the continuous data loop: a bounded-queue
//     telemetry intake with explicit backpressure (a full queue answers
//     429, never blocks), a deterministic per-feature distribution
//     sketch that scores live telemetry's drift from the serving
//     artifact's training distribution, and the retrain triggering
//     (row count, drift threshold, manual) that folds the buffer into
//     the dataset and republishes through serve's generation swap —
//     POST /v2/ingest and /v2/retrain on an -ingest dramserve
//   - internal/fleet   — the fleet-scale scenario: a deterministic,
//     seeded simulator of a heterogeneous datacenter (per-DIMM silicon
//     variation, diurnal ambient schedules through the thermal plant,
//     rotating workload mixes) that emits prediction queries paired with
//     ground-truth WER/PUE, plus the closed-loop driver that replays the
//     stream against a live server at a target QPS on the engine's
//     bounded workers — same seed, same stream, byte for byte — and, in
//     -ingest mode, reports each query's ground truth back to the
//     server, closing the retraining loop (cmd/dramfleet is the entry
//     point)
//   - internal/cluster — the horizontal-scale tier: a front router that
//     consistent-hashes model ownership across N dramserve backends,
//     with health-checked pool membership, bounded retry and hedging on
//     slow shards, and artifact-fingerprint consistency (responses never
//     blend two artifact generations) — serving the /v2 wire format
//     unchanged (cmd/dramrouter is the entry point)
//   - internal/httpapi — the request contract serve and cluster share:
//     strict JSON decode, body cap, method and media-type enforcement,
//     structured errors, the pooled JSON writer and per-(endpoint, code)
//     request counting
//   - internal/policy — the closed control loop: mitigation policies
//     (static, threshold, risk-budget) that consume the server's /v2
//     predictions and act on the fleet — per-server TREFP retuning,
//     rank offlining with a capacity cost, job migration — plus the
//     deterministic policy-evaluation harness that scores a policy
//     against an un-actuated same-seed shadow fleet (avoided UEs and
//     crashes vs refresh/capacity/migration overhead, rendered as a
//     checksummed ledger, byte-identical at any worker count;
//     `dramfleet -policy` is the entry point)
//   - internal/cliflag — the flags shared by the dram* commands: the
//     dataset-acquisition set (-load/-save/-quick/-scale/...), the
//     -target selection over the unified prediction targets, the
//     -qps/-duration/-n load-volume pair of the closed-loop generators,
//     and the -pprof side listener for profiling a live process
//   - internal/benchmark — the benchmark trajectory: parses
//     `go test -bench` output into machine-classed snapshots
//     (BENCH_<goos>-<goarch>.json) and gates fresh runs against the
//     checked-in baseline — exact on hot-path allocation counts,
//     slack-factored on times (cmd/benchgate is the CLI,
//     scripts/bench.sh the harness, CI runs the check)
//
// See README.md for a tour and the package map, API.md for the serving
// wire format and the fleet determinism contract, and EXPERIMENTS.md for
// the paper-versus-reproduction numbers and the knob-by-knob setup
// correspondence. The benchmarks in bench_test.go regenerate each figure:
// go test -bench=Benchmark -benchtime=1x .
package repro
