#!/usr/bin/env bash
# Smoke-tests the deployed serving surface end to end: builds dramserve
# and dramfleet, boots the server against the checked-in golden artifact,
# and exercises /healthz, /v1/predict and /v2/predict over real HTTP —
# asserting the artifact generation and fingerprint are surfaced, both
# predict surfaces answer, and the uniform method contract (405 + Allow)
# holds. It then aims a dramfleet burst at the server, asserts a
# parseable latency-percentile report, cross-checks the generator's
# completed-query count against the server's /v2/stats counters, and
# replays the same seed twice to prove the report is byte-identical. CI
# runs this after the unit suite; it is also runnable locally:
# scripts/smoke.sh
#
# A second act boots the cluster tier: two more dramserve backends fronted
# by dramrouter, asserting the pool reaches fingerprint agreement and that
# a dramfleet burst drives the /v2 surface through the router unchanged.
#
# A third act covers the field-failure target: dramtrain synthesizes a
# UE-telemetry artifact (asserting the classifier eval is byte-identical
# across worker counts), then ue_risk is queried end to end through a
# direct dramserve and through dramrouter, asserting /v2/stats counts the
# new (target, kind, input set) model triple.
#
# A fourth act closes the data loop: an -ingest dramserve takes a
# dramfleet -ingest burst (ground-truth observations via /v2/ingest),
# trips the drift/row-count retrain triggers, and the assertions are that
# a new fingerprinted generation was published, the artifact on disk was
# rewritten to match, zero predicts failed during the swap, and the
# ingest counters and manual /v2/retrain answer coherently.
#
# A fifth act closes the control loop: an ingest-enabled dramserve on the
# UE artifact feeds live /v2 predictions into `dramfleet -policy
# threshold`, whose mitigation actions actuate the simulated fleet. The
# assertions are that the printed mitigation ledger is non-empty (the
# policy actually acted) and that two same-seed replays render the ledger
# byte-identically — the policy evaluation harness's determinism contract
# surviving a live HTTP predictor.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:18080
addr_b1=127.0.0.1:18081
addr_b2=127.0.0.1:18082
addr_rt=127.0.0.1:18090
addr_ue=127.0.0.1:18083
addr_ue2=127.0.0.1:18084
addr_uert=127.0.0.1:18091
addr_ing=127.0.0.1:18085
addr_pol=127.0.0.1:18086
workdir=$(mktemp -d)
pids=()
# Wait for the killed servers before removing their files: a server
# still finishing a retrain writes into $workdir until it exits.
trap 'kill "${pids[@]}" 2>/dev/null || true; wait "${pids[@]}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/dramserve" ./cmd/dramserve
go build -o "$workdir/dramfleet" ./cmd/dramfleet
go build -o "$workdir/dramrouter" ./cmd/dramrouter
go build -o "$workdir/dramtrain" ./cmd/dramtrain
"$workdir/dramserve" -load internal/core/testdata/golden_v1.json.gz -addr "$addr" \
  2>"$workdir/serve.log" &
pid=$!
pids+=("$pid")

for _ in $(seq 1 100); do
  curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && break
  kill -0 "$pid" 2>/dev/null || { echo "dramserve died:"; cat "$workdir/serve.log"; exit 1; }
  sleep 0.1
done

fail() { echo "smoke: $1"; echo "--- response: $2"; exit 1; }

health=$(curl -fsS "http://$addr/healthz")
echo "$health" | grep -q '"generation":1' || fail "/healthz missing generation" "$health"
echo "$health" | grep -Eq '"fingerprint":"[a-z0-9]+:' || fail "/healthz missing fingerprint" "$health"

v1=$(curl -fsS -XPOST "http://$addr/v1/predict" -H 'Content-Type: application/json' \
  -d '{"workload":"nw","trefp":1.173,"temp_c":60}')
echo "$v1" | grep -q '"wer_mean"' || fail "/v1/predict missing wer_mean" "$v1"
echo "$v1" | grep -q '"pue"' || fail "/v1/predict missing pue" "$v1"

v2=$(curl -fsS -XPOST "http://$addr/v2/predict" -H 'Content-Type: application/json' \
  -d '{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["pue"]}')
echo "$v2" | grep -q '"pue"' || fail "/v2/predict missing pue result" "$v2"
echo "$v2" | grep -q '"generation":1' || fail "/v2/predict missing generation" "$v2"
echo "$v2" | grep -Eq '"fingerprint":"[a-z0-9]+:' || fail "/v2/predict missing fingerprint" "$v2"
echo "$v2" | grep -q '"wer"' && fail "/v2 pue-only query answered wer" "$v2"

# A /v2 validation failure is a structured {code, field, message} error.
v2err=$(curl -sS -XPOST "http://$addr/v2/predict" -H 'Content-Type: application/json' \
  -d '{"workload":"doom","trefp":1,"temp_c":60}')
echo "$v2err" | grep -q '"code":"unknown_workload"' || fail "/v2 error not structured" "$v2err"
echo "$v2err" | grep -q '"field":"workload"' || fail "/v2 error missing field" "$v2err"

# Wrong method: uniformly 405 with the Allow header.
hdrs=$(curl -sS -o /dev/null -D - "http://$addr/v2/predict")
echo "$hdrs" | head -1 | grep -q 405 || fail "GET /v2/predict not 405" "$hdrs"
echo "$hdrs" | grep -qi '^allow: POST' || fail "405 missing Allow header" "$hdrs"

# --- fleet burst: drive the server with the simulated datacenter stream.

# stats_target extracts one target's rollup counter from a /v2/stats body.
stats_target() {
  echo "$1" | sed -n 's/.*"targets":{\([^}]*\)}.*/\1/p' \
    | tr ',' '\n' | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}

before=$(curl -fsS "http://$addr/v2/stats")
wer0=$(stats_target "$before" wer); pue0=$(stats_target "$before" pue)
[ -n "$wer0" ] && [ -n "$pue0" ] || fail "/v2/stats missing target rollup" "$before"

"$workdir/dramfleet" -addr "http://$addr" -seed 1 -qps 150 -duration 2s \
  >"$workdir/fleet.txt" 2>"$workdir/fleet.log" \
  || fail "dramfleet burst failed" "$(cat "$workdir/fleet.log")"

completed=$(sed -n 's/^completed \([0-9]*\)$/\1/p' "$workdir/fleet.txt")
[ -n "$completed" ] && [ "$completed" -gt 0 ] \
  || fail "fleet burst completed no queries" "$(cat "$workdir/fleet.txt")"
grep -Eq '^p99 [0-9]+\.[0-9]+ ms$' "$workdir/fleet.txt" \
  || fail "fleet report p99 not parseable" "$(cat "$workdir/fleet.txt")"

# The server's /v2/stats view must account for exactly the generator's
# completed queries, per requested target.
after=$(curl -fsS "http://$addr/v2/stats")
wer1=$(stats_target "$after" wer); pue1=$(stats_target "$after" pue)
[ "$((wer1 - wer0))" -eq "$completed" ] \
  || fail "server counted $((wer1 - wer0)) wer queries, generator completed $completed" "$after"
[ "$((pue1 - pue0))" -eq "$completed" ] \
  || fail "server counted $((pue1 - pue0)) pue queries, generator completed $completed" "$after"

# Determinism contract: the same seed replays byte-identically — the
# query stream always, and the whole report with timing disabled.
"$workdir/dramfleet" -addr "http://$addr" -seed 1 -n 40 -qps 400 -timing=false \
  -stream-out "$workdir/s1.jsonl" >"$workdir/r1.txt" 2>/dev/null \
  || fail "deterministic run 1 failed" "$(cat "$workdir/r1.txt")"
"$workdir/dramfleet" -addr "http://$addr" -seed 1 -n 40 -qps 400 -timing=false \
  -stream-out "$workdir/s2.jsonl" >"$workdir/r2.txt" 2>/dev/null \
  || fail "deterministic run 2 failed" "$(cat "$workdir/r2.txt")"
cmp -s "$workdir/s1.jsonl" "$workdir/s2.jsonl" \
  || fail "query streams differ for the same seed" "$(diff "$workdir/s1.jsonl" "$workdir/s2.jsonl" | head)"
cmp -s "$workdir/r1.txt" "$workdir/r2.txt" \
  || fail "fleet reports differ for the same seed" "$(diff "$workdir/r1.txt" "$workdir/r2.txt")"

# --- cluster tier: two backends behind dramrouter, same /v2 wire format.

"$workdir/dramserve" -load internal/core/testdata/golden_v1.json.gz -addr "$addr_b1" \
  2>"$workdir/serve_b1.log" &
pids+=($!)
"$workdir/dramserve" -load internal/core/testdata/golden_v1.json.gz -addr "$addr_b2" \
  2>"$workdir/serve_b2.log" &
pids+=($!)
"$workdir/dramrouter" -addr "$addr_rt" -backends "$addr_b1,$addr_b2" \
  -probe-interval 200ms 2>"$workdir/router.log" &
pids+=($!)

# The router answers /healthz 503 until its pool is probed healthy, but
# just after boot it may serve a pre-probe snapshot (backends provisionally
# healthy, fingerprints not yet learned), so the poll waits for the pool
# fingerprint to converge on the artifact fingerprint dramserve reported
# in act one — that is the agreement being asserted anyway.
fp_serve=$(echo "$health" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p')
rhealth=
for _ in $(seq 1 100); do
  rhealth=$(curl -fsS "http://$addr_rt/healthz" 2>/dev/null) \
    && echo "$rhealth" | grep -q "\"fingerprint\":\"$fp_serve\"" && break
  sleep 0.1
done
[ -n "$rhealth" ] || fail "router pool never became healthy" "$(cat "$workdir/router.log")"
echo "$rhealth" | grep -q '"status":"ok"' || fail "router /healthz not ok" "$rhealth"
echo "$rhealth" | grep -q '"healthy":2' || fail "router pool not fully healthy" "$rhealth"
echo "$rhealth" | grep -q '"fingerprint_skew":false' || fail "router pool skewed" "$rhealth"
echo "$rhealth" | grep -q "\"fingerprint\":\"$fp_serve\"" \
  || fail "router pool fingerprint disagrees with dramserve ($fp_serve)" "$rhealth"

# The routed /v2 surface is byte-compatible: same query, same answer shape.
rv2=$(curl -fsS -XPOST "http://$addr_rt/v2/predict" -H 'Content-Type: application/json' \
  -d '{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["pue"]}')
echo "$rv2" | grep -q '"pue"' || fail "routed /v2/predict missing pue result" "$rv2"
echo "$rv2" | grep -q "\"fingerprint\":\"$fp_serve\"" || fail "routed /v2 fingerprint mismatch" "$rv2"

# A fleet burst drives the router exactly like a single backend.
"$workdir/dramfleet" -addr "http://$addr_rt" -seed 5 -qps 150 -duration 2s \
  >"$workdir/fleet_rt.txt" 2>"$workdir/fleet_rt.log" \
  || fail "dramfleet burst through router failed" "$(cat "$workdir/fleet_rt.log")"
completed_rt=$(sed -n 's/^completed \([0-9]*\)$/\1/p' "$workdir/fleet_rt.txt")
[ -n "$completed_rt" ] && [ "$completed_rt" -gt 0 ] \
  || fail "routed fleet burst completed no queries" "$(cat "$workdir/fleet_rt.txt")"
grep -Eq '^p99 [0-9]+\.[0-9]+ ms$' "$workdir/fleet_rt.txt" \
  || fail "routed fleet report p99 not parseable" "$(cat "$workdir/fleet_rt.txt")"

# The router's own metrics account for the burst.
rmetrics=$(curl -fsS "http://$addr_rt/metrics")
echo "$rmetrics" | grep -q 'dramrouter_backends_healthy 2' \
  || fail "router metrics missing healthy pool" "$rmetrics"
echo "$rmetrics" | grep -Eq 'dramrouter_requests_total\{endpoint="/v2/predict",code="200"\} [1-9]' \
  || fail "router metrics missing routed requests" "$rmetrics"

# --- field-failure target: train with CE telemetry, serve ue_risk e2e.

"$workdir/dramtrain" -quick -scale 32 -ue-windows 24 -save "$workdir/ue.json.gz" \
  >"$workdir/train.txt" 2>"$workdir/train.log" \
  || fail "dramtrain with -ue-windows failed" "$(cat "$workdir/train.log")"
grep -q 'UE-risk classification, leave-one-server-out' "$workdir/train.txt" \
  || fail "dramtrain report missing the UE-risk eval" "$(cat "$workdir/train.txt")"

# The classifier evaluation is bit-deterministic at any worker count:
# re-evaluating the saved artifact at -workers 1 and 4 must print the
# same report byte for byte.
"$workdir/dramtrain" -load "$workdir/ue.json.gz" -workers 1 >"$workdir/eval_w1.txt" 2>/dev/null \
  || fail "eval at -workers 1 failed" "$(cat "$workdir/eval_w1.txt")"
"$workdir/dramtrain" -load "$workdir/ue.json.gz" -workers 4 >"$workdir/eval_w4.txt" 2>/dev/null \
  || fail "eval at -workers 4 failed" "$(cat "$workdir/eval_w4.txt")"
cmp -s "$workdir/eval_w1.txt" "$workdir/eval_w4.txt" \
  || fail "classifier eval differs across worker counts" "$(diff "$workdir/eval_w1.txt" "$workdir/eval_w4.txt")"

"$workdir/dramserve" -load "$workdir/ue.json.gz" -addr "$addr_ue" \
  2>"$workdir/serve_ue.log" &
pid_ue=$!
pids+=("$pid_ue")
for _ in $(seq 1 100); do
  curl -fsS "http://$addr_ue/healthz" >/dev/null 2>&1 && break
  kill -0 "$pid_ue" 2>/dev/null || { echo "ue dramserve died:"; cat "$workdir/serve_ue.log"; exit 1; }
  sleep 0.1
done

# The UE artifact advertises the telemetry target and its row count.
uehealth=$(curl -fsS "http://$addr_ue/healthz")
echo "$uehealth" | grep -q '"ue_risk"' || fail "ue /healthz does not advertise ue_risk" "$uehealth"
echo "$uehealth" | grep -Eq '"uer_rows":[1-9]' || fail "ue /healthz missing uer_rows" "$uehealth"

ce_query='{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["ue_risk"],
  "ce":[{"t":1,"row":42,"col":3,"bank":0,"rank":1},
        {"t":1.2,"row":42,"col":9,"bank":0,"rank":1,"bits":2},
        {"t":1.3,"row":42,"col":9,"bank":0,"rank":1,"bits":2}]}'
uev2=$(curl -fsS -XPOST "http://$addr_ue/v2/predict" -H 'Content-Type: application/json' \
  -d "$ce_query")
echo "$uev2" | grep -q '"ue_risk"' || fail "/v2 ue_risk query unanswered" "$uev2"
echo "$uev2" | grep -q '"wer"' && fail "/v2 ue_risk-only query answered wer" "$uev2"

# The same query twice answers byte-identically modulo elapsed_ms.
uev2b=$(curl -fsS -XPOST "http://$addr_ue/v2/predict" -H 'Content-Type: application/json' \
  -d "$ce_query")
strip_ms() { echo "$1" | sed 's/"elapsed_ms":[0-9.e+-]*/"elapsed_ms":0/'; }
[ "$(strip_ms "$uev2")" = "$(strip_ms "$uev2b")" ] \
  || fail "ue_risk prediction not deterministic" "$uev2 vs $uev2b"

# A CE-bearing query with no explicit targets joins ue_risk into the
# default selection alongside wer and pue.
uedef=$(curl -fsS -XPOST "http://$addr_ue/v2/predict" -H 'Content-Type: application/json' \
  -d '{"workload":"nw","trefp":1.173,"temp_c":60,"ce":[{"t":1,"row":3,"col":4,"bank":1,"rank":0}]}')
for tgt in wer pue ue_risk; do
  echo "$uedef" | grep -q "\"$tgt\"" || fail "CE-bearing default selection missing $tgt" "$uedef"
done

# The server counts the new (target, kind, input set) model triple.
uestats=$(curl -fsS "http://$addr_ue/v2/stats")
uer_count=$(stats_target "$uestats" ue_risk)
[ -n "$uer_count" ] && [ "$uer_count" -ge 3 ] \
  || fail "/v2/stats ue_risk rollup is ${uer_count:-missing}, want >= 3" "$uestats"
echo "$uestats" | grep -q '"target":"ue_risk","kind":"KNN","input_set":1' \
  || fail "/v2/stats missing the (ue_risk, KNN, 1) model entry" "$uestats"

# The same queries route unchanged through dramrouter: a ue_risk query is
# hashed to its owning backend, a no-targets CE query is forwarded whole
# so the backend applies its own default selection.
"$workdir/dramserve" -load "$workdir/ue.json.gz" -addr "$addr_ue2" \
  2>"$workdir/serve_ue2.log" &
pids+=($!)
"$workdir/dramrouter" -addr "$addr_uert" -backends "$addr_ue,$addr_ue2" \
  -probe-interval 200ms 2>"$workdir/router_ue.log" &
pids+=($!)
fp_ue=$(echo "$uehealth" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p')
for _ in $(seq 1 100); do
  curl -fsS "http://$addr_uert/healthz" 2>/dev/null | grep -q "\"fingerprint\":\"$fp_ue\"" && break
  sleep 0.1
done
ruev2=$(curl -fsS -XPOST "http://$addr_uert/v2/predict" -H 'Content-Type: application/json' \
  -d "$ce_query")
echo "$ruev2" | grep -q '"ue_risk"' || fail "routed ue_risk query unanswered" "$ruev2"
[ "$(strip_ms "$ruev2")" = "$(strip_ms "$uev2")" ] \
  || fail "routed ue_risk answer differs from direct" "$ruev2 vs $uev2"
ruedef=$(curl -fsS -XPOST "http://$addr_uert/v2/predict" -H 'Content-Type: application/json' \
  -d '{"workload":"nw","trefp":1.173,"temp_c":60,"ce":[{"t":1,"row":3,"col":4,"bank":1,"rank":0}]}')
for tgt in wer pue ue_risk; do
  echo "$ruedef" | grep -q "\"$tgt\"" || fail "routed default selection missing $tgt" "$ruedef"
done

# --- the data loop: ingest burst -> drift/row trigger -> background
# retrain -> new fingerprinted generation, with zero failed predicts.

# Retrain rewrites the -load artifact in place, so the loop runs on its
# own copy — never on the UE artifact the earlier acts still serve.
cp "$workdir/ue.json.gz" "$workdir/loop.json.gz"
"$workdir/dramserve" -load "$workdir/loop.json.gz" -addr "$addr_ing" \
  -ingest -ingest-capacity 4096 -retrain-rows 96 \
  -drift-threshold 0.05 -drift-min-rows 24 \
  2>"$workdir/serve_ing.log" &
pid_ing=$!
pids+=("$pid_ing")
for _ in $(seq 1 100); do
  curl -fsS "http://$addr_ing/healthz" >/dev/null 2>&1 && break
  kill -0 "$pid_ing" 2>/dev/null || { echo "ingest dramserve died:"; cat "$workdir/serve_ing.log"; exit 1; }
  sleep 0.1
done
fp_loop0=$(curl -fsS "http://$addr_ing/healthz" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p')

# The fleet burst both predicts and reports ground truth back; 120 rows
# cross the -retrain-rows 96 trigger mid-run.
"$workdir/dramfleet" -addr "http://$addr_ing" -ingest -seed 3 -n 120 -qps 400 \
  >"$workdir/fleet_ing.txt" 2>"$workdir/fleet_ing.log" \
  || fail "dramfleet ingest burst failed" "$(cat "$workdir/fleet_ing.log")"
grep -q '^failed    0$' "$workdir/fleet_ing.txt" \
  || fail "predicts failed during the ingest run" "$(cat "$workdir/fleet_ing.txt")"
ingested=$(sed -n 's/^ingested  \([0-9]*\)$/\1/p' "$workdir/fleet_ing.txt")
[ -n "$ingested" ] && [ "$ingested" -ge 96 ] \
  || fail "fleet reported ${ingested:-no} ingested observations, want >= 96" "$(cat "$workdir/fleet_ing.txt")"

# The background retrain publishes a new generation with a new
# fingerprint, and rewrites the artifact on disk to match.
fp_loop1=
for _ in $(seq 1 150); do
  ih=$(curl -fsS "http://$addr_ing/healthz" 2>/dev/null) || { sleep 0.2; continue; }
  fp_loop1=$(echo "$ih" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p')
  if [ -n "$fp_loop1" ] && [ "$fp_loop1" != "$fp_loop0" ]; then
    echo "$ih" | grep -Eq '"generation":([2-9]|[1-9][0-9]+)' && break
  fi
  fp_loop1=
  sleep 0.2
done
[ -n "$fp_loop1" ] \
  || fail "ingest retrain never published a new generation" "$(cat "$workdir/serve_ing.log")"

# One more predict on the fresh generation must carry the new fingerprint.
postv2=$(curl -fsS -XPOST "http://$addr_ing/v2/predict" -H 'Content-Type: application/json' \
  -d '{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["pue"]}')
echo "$postv2" | grep -q "\"fingerprint\":\"$fp_loop1\"" \
  || fail "post-retrain predict not on the new artifact" "$postv2"

# The ingest counters are coherent in both expositions.
istats=$(curl -fsS "http://$addr_ing/v2/stats")
echo "$istats" | grep -q '"ingest":{' || fail "/v2/stats missing ingest section" "$istats"
echo "$istats" | grep -Eq '"retrains":[1-9]' || fail "/v2/stats counts no retrain" "$istats"
imetrics=$(curl -fsS "http://$addr_ing/metrics")
echo "$imetrics" | grep -Eq 'dramserve_ingest_accepted_total [1-9]' \
  || fail "metrics missing ingest accepted counter" "$imetrics"
echo "$imetrics" | grep -Eq 'dramserve_retrain_total [1-9]' \
  || fail "metrics missing retrain counter" "$imetrics"

# A manual retrain answers the generation/fingerprint it serves (idle
# buffer: swapped=false is fine; a 409 means a background retrain is
# still folding the leftover rows — also a coherent answer).
rt=$(curl -sS -XPOST "http://$addr_ing/v2/retrain")
echo "$rt" | grep -Eq '"fingerprint"|"retrain_in_progress"' \
  || fail "/v2/retrain did not answer coherently" "$rt"

# --- the control loop: live predictions drive the mitigation policy,
# and the scored ledger replays byte-identically at equal seed.

# The policy loop needs stable predictions across both replays, so it
# gets its own server on its own artifact copy: -policy sends no ingest
# traffic, hence no retrain can swap the generation mid-replay.
cp "$workdir/ue.json.gz" "$workdir/policy.json.gz"
"$workdir/dramserve" -load "$workdir/policy.json.gz" -addr "$addr_pol" \
  -ingest -ingest-capacity 4096 \
  2>"$workdir/serve_pol.log" &
pid_pol=$!
pids+=("$pid_pol")
for _ in $(seq 1 100); do
  curl -fsS "http://$addr_pol/healthz" >/dev/null 2>&1 && break
  kill -0 "$pid_pol" 2>/dev/null || { echo "policy dramserve died:"; cat "$workdir/serve_pol.log"; exit 1; }
  sleep 0.1
done

"$workdir/dramfleet" -addr "http://$addr_pol" -policy threshold -seed 1 -ticks 8 \
  >"$workdir/pol1.txt" 2>"$workdir/pol1.log" \
  || fail "policy run 1 failed" "$(cat "$workdir/pol1.log")"
grep -q '^mitigation ledger: policy=threshold seed=1' "$workdir/pol1.txt" \
  || fail "policy report missing the mitigation ledger" "$(cat "$workdir/pol1.txt")"
# Non-empty ledger: the loop predicted on every tick and the policy
# actually issued at least one action against the fleet.
grep -Eq '^  predict +calls=[1-9][0-9]* errors=0$' "$workdir/pol1.txt" \
  || fail "policy loop completed no clean predictions" "$(cat "$workdir/pol1.txt")"
grep -Eq '^  actions +retune=[0-9]+ offline=[0-9]+ migrate=[0-9]+$' "$workdir/pol1.txt" \
  || fail "policy report missing the action counts" "$(cat "$workdir/pol1.txt")"
grep -Eq 'retune=[1-9]|offline=[1-9]|migrate=[1-9]' "$workdir/pol1.txt" \
  || fail "threshold policy never acted" "$(cat "$workdir/pol1.txt")"
grep -Eq '^  checksum +[0-9a-f]{16}$' "$workdir/pol1.txt" \
  || fail "policy report missing the ledger checksum" "$(cat "$workdir/pol1.txt")"

# Same seed, same artifact: the whole ledger replays byte-identically.
"$workdir/dramfleet" -addr "http://$addr_pol" -policy threshold -seed 1 -ticks 8 \
  >"$workdir/pol2.txt" 2>"$workdir/pol2.log" \
  || fail "policy run 2 failed" "$(cat "$workdir/pol2.log")"
cmp -s "$workdir/pol1.txt" "$workdir/pol2.txt" \
  || fail "mitigation ledgers differ for the same seed" "$(diff "$workdir/pol1.txt" "$workdir/pol2.txt")"

echo "smoke OK"
