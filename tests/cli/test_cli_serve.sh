#!/usr/bin/env bash
# End-to-end exercise of `hrf_cli --mode serve`: a synthetic multi-threaded
# client driver against the ForestServer, clean and under persistent
# injected GPU faults. Usage: test_cli_serve.sh <path-to-hrf_cli>
set -u

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
FAILURES=0

check() {  # check <description> <needle> <file>
  if grep -q "$2" "$3"; then
    echo "ok: $1"
  else
    echo "FAIL: $1 (missing '$2' in $3)"
    FAILURES=$((FAILURES + 1))
  fi
}

"$CLI" --mode gen --dataset susy --samples 4000 --out "$DIR/d.hrfd" > "$DIR/gen.log" 2>&1
"$CLI" --mode train --data "$DIR/d.hrfd" --trees 10 --depth 8 \
       --out "$DIR/m.hrff" > "$DIR/train.log" 2>&1
[ -f "$DIR/m.hrff" ] || { echo "FAIL: model setup"; exit 1; }

# --- Clean serving: all requests complete, clean drain, exit 0 -----------
if "$CLI" --mode serve --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend gpu-sim --variant hybrid --sd 4 \
       --workers 3 --clients 4 --requests 6 --batch 128 > "$DIR/serve.log" 2>&1; then
  echo "ok: clean serve exits 0"
else
  echo "FAIL: clean serve exited nonzero"
  FAILURES=$((FAILURES + 1))
fi
check "serve banner shows configuration" "serving gpu-sim/hybrid: 3 workers" "$DIR/serve.log"
check "all requests completed" "24 ok (0 degraded), 0 overload-rejected, 0 quota-shed, 0 deadline, 0 failed" "$DIR/serve.log"
check "counters are reported" "requests.completed" "$DIR/serve.log"
check "breaker stayed closed" "breaker: state=closed trips=0" "$DIR/serve.log"
check "drain abandoned nothing" "abandoned=0" "$DIR/serve.log"
check "clean shutdown reported" "serve: clean shutdown" "$DIR/serve.log"

# --- Dynamic micro-batching: concurrent clients against --batch-max 8 ---
# coalesce into backend-native batches; responses stay per-request, the
# drain is clean, and the batch counters appear in the report.
if "$CLI" --mode serve --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend gpu-sim --variant hybrid --sd 4 \
       --batch-max 8 --batch-wait-us 2000 \
       --workers 2 --clients 6 --requests 5 --batch 32 > "$DIR/batched.log" 2>&1; then
  echo "ok: batched serve exits 0"
else
  echo "FAIL: batched serve exited nonzero"
  FAILURES=$((FAILURES + 1))
fi
check "batched run answers every request" "30 ok (0 degraded), 0 overload-rejected, 0 quota-shed, 0 deadline, 0 failed" "$DIR/batched.log"
check "batches were formed" "batch.formed" "$DIR/batched.log"
check "batched serve shuts down cleanly" "serve: clean shutdown" "$DIR/batched.log"

# --- Tenant quotas: clients round-robin across three weighted tenants; --
# an unloaded run admits everyone, and the per-tenant accounting table
# (weight, reserved slots, admitted, shed) is printed on drain.
if "$CLI" --mode serve --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend gpu-sim --variant hybrid --sd 4 \
       --workers 2 --clients 3 --requests 4 --batch 128 --queue-cap 12 \
       --tenants gold,silver,bronze --tenant-weights 3,2,1 \
       > "$DIR/tenants.log" 2>&1; then
  echo "ok: tenant-quota serve exits 0"
else
  echo "FAIL: tenant-quota serve exited nonzero"
  FAILURES=$((FAILURES + 1))
fi
check "quota run admits everyone" "12 ok (0 degraded), 0 overload-rejected, 0 quota-shed" "$DIR/tenants.log"
check "tenant table printed" "Tenant quotas" "$DIR/tenants.log"
check "tenant rows carry reserved shares" "gold" "$DIR/tenants.log"
check "tenant quota serve shuts down cleanly" "serve: clean shutdown" "$DIR/tenants.log"

# --- Breaker scenario: persistent GPU faults drive the server's retry + --
# breaker. Every request must still be answered (degraded via the CPU
# fallback replica) and the run must still shut down cleanly with exit
# code 0.
if "$CLI" --mode serve --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend gpu-sim --variant hybrid --sd 4 \
       --inject-fault resource:gpu:-1 --retries 1 --breaker-threshold 2 \
       --breaker-open-ms 5000 \
       --workers 2 --clients 8 --requests 4 --batch 128 > "$DIR/breaker.log" 2>&1; then
  echo "ok: faulted serve still exits 0"
else
  echo "FAIL: faulted serve exited nonzero"
  FAILURES=$((FAILURES + 1))
fi
check "every request served despite faults" "32 ok" "$DIR/breaker.log"
check "no request failed under faults" "0 failed" "$DIR/breaker.log"
check "degradation routed to cpu fallback" "cpu-native fallback" "$DIR/breaker.log"
check "breaker tripped and stayed open" "breaker: state=open" "$DIR/breaker.log"
check "fallback counter accounts for all requests" "fallback.served" "$DIR/breaker.log"
check "faulted run still drains cleanly" "serve: clean shutdown" "$DIR/breaker.log"

# --- Transient fault: absorbed by the server's retry on the primary, so --
# every request completes undegraded and one retry is counted.
if "$CLI" --mode serve --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend gpu-sim --variant hybrid --sd 4 \
       --inject-fault resource:gpu --workers 1 --clients 1 --requests 4 \
       --batch 128 > "$DIR/transient.log" 2>&1; then
  echo "ok: transient-fault serve exits 0"
else
  echo "FAIL: transient-fault serve exited nonzero"
  FAILURES=$((FAILURES + 1))
fi
check "server retry absorbed the transient fault" "4 ok (0 degraded)" "$DIR/transient.log"
check "exactly one retry spent" "requests\.retried *| 1 *|" "$DIR/transient.log"
check "transient run shuts down cleanly" "serve: clean shutdown" "$DIR/transient.log"

# --- Silent corruption: corrupt:replica poisons a live replica; the ------
# scrubber's CRC pass detects it and rebuilds the replica in place while
# audits (every request) guarantee no client ever saw a wrong answer.
if "$CLI" --mode serve --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend gpu-sim --variant hybrid --sd 4 \
       --inject-fault corrupt:replica --scrub-interval-ms 2 --audit-sample 1 \
       --workers 2 --clients 4 --requests 25 --batch 128 > "$DIR/integrity.log" 2>&1; then
  echo "ok: corrupted serve exits 0"
else
  echo "FAIL: corrupted serve exited nonzero"
  FAILURES=$((FAILURES + 1))
fi
check "every request answered despite corruption" "100 ok" "$DIR/integrity.log"
check "no request failed during repair" "0 failed" "$DIR/integrity.log"
check "self-heal summary printed" "Self-heal summary" "$DIR/integrity.log"
if grep -E '\| scrub corruptions +\| [1-9]' "$DIR/integrity.log" > /dev/null; then
  echo "ok: scrubber caught the injected corruption"
else
  echo "FAIL: scrubber never flagged a corruption"
  FAILURES=$((FAILURES + 1))
fi
if grep -E '\| replica repairs +\| [1-9]' "$DIR/integrity.log" > /dev/null; then
  echo "ok: corrupted replica was rebuilt in place"
else
  echo "FAIL: no replica repair recorded"
  FAILURES=$((FAILURES + 1))
fi
check "corrupted run still drains cleanly" "serve: clean shutdown" "$DIR/integrity.log"

# --- Telemetry surface: traced serve + metrics export + schema check -----
if "$CLI" --mode serve --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend gpu-sim --variant hybrid --sd 4 \
       --trace-sample 1.0 --trace-top 2 --metrics-out "$DIR/metrics.prom" \
       --workers 2 --clients 2 --requests 4 --batch 128 > "$DIR/traced.log" 2>&1; then
  echo "ok: traced serve exits 0"
else
  echo "FAIL: traced serve exited nonzero"
  FAILURES=$((FAILURES + 1))
fi
check "rollup table printed on drain" "variant/backend/gen" "$DIR/traced.log"
check "trace summary printed" "traces:" "$DIR/traced.log"
check "slowest traces render as span trees" "outcome=completed" "$DIR/traced.log"
check "metrics files written" "metrics written to" "$DIR/traced.log"
[ -f "$DIR/metrics.prom" ] || { echo "FAIL: metrics.prom missing"; FAILURES=$((FAILURES + 1)); }
[ -f "$DIR/metrics.prom.json" ] || { echo "FAIL: metrics.prom.json missing"; FAILURES=$((FAILURES + 1)); }
check "prometheus export carries rollup gauges" "hrf_backend_branch_efficiency" "$DIR/metrics.prom"
check "prometheus export carries stage-1 hit rate" "hrf_backend_stage1_onchip_hit_rate" "$DIR/metrics.prom"
check "prometheus export labels the served variant" 'variant="hybrid"' "$DIR/metrics.prom"
check "json export uses the metrics schema" "hrf-metrics" "$DIR/metrics.prom.json"

if "$CLI" --mode metrics-check --metrics "$DIR/metrics.prom" > "$DIR/mcheck.log" 2>&1; then
  echo "ok: metrics-check passes on the serve export"
else
  echo "FAIL: metrics-check rejected the serve export"
  FAILURES=$((FAILURES + 1))
fi
check "metrics-check reports the catalogue" "catalogued families" "$DIR/mcheck.log"

# --- Trace mode: single-shot traced requests with per-chunk spans --------
if "$CLI" --mode trace --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend gpu-sim --variant hybrid --sd 4 \
       --requests 3 --batch 128 --chunk 32 > "$DIR/trace.log" 2>&1; then
  echo "ok: trace mode exits 0"
else
  echo "FAIL: trace mode exited nonzero"
  FAILURES=$((FAILURES + 1))
fi
check "trace mode renders chunk spans" "chunk-0" "$DIR/trace.log"
check "chunk spans carry gpu counters" "gpu.branch_efficiency" "$DIR/trace.log"
check "request roots carry outcomes" "outcome=completed" "$DIR/trace.log"

# Error path: serving without a model must fail cleanly, not crash.
if "$CLI" --mode serve --model /nonexistent.hrff --data "$DIR/d.hrfd" > "$DIR/err.log" 2>&1; then
  echo "FAIL: missing model should exit nonzero"
  FAILURES=$((FAILURES + 1))
else
  check "missing model reports an error" "error:" "$DIR/err.log"
fi

echo "cli serve test failures: $FAILURES"
exit "$FAILURES"
