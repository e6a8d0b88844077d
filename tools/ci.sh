#!/usr/bin/env bash
# Single-entry CI pipeline: builds the plain tree, then runs the tier-1
# correctness gate, the metrics-schema gate, the incident-bundle schema
# gate, the chaos matrix (ctest -L chaos plus the tools/chaos.sh CLI
# harness), the simulator suites under ASan+UBSan, and the
# ThreadSanitizer concurrency suites — and emits a
# machine-readable JSON report with one pass/fail entry per step, so a
# CI job can publish structured results instead of scraping logs.
#
# Every step runs even when an earlier one fails (the report then shows
# exactly which gates broke); the script exits nonzero if any step failed.
# Usage: tools/ci.sh [--out report.json]
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

OUT="ci_report.json"
if [ "${1:-}" = "--out" ]; then
  OUT="${2:?usage: tools/ci.sh [--out report.json]}"
elif [ -n "${1:-}" ]; then
  echo "usage: tools/ci.sh [--out report.json]" >&2
  exit 2
fi

NAMES=()
CODES=()
SECS=()

run_step() {  # run_step <name> <function>
  local name="$1" fn="$2" rc=0 t0="$SECONDS"
  echo "=== ci: $name ==="
  "$fn" || rc=$?
  NAMES+=("$name")
  CODES+=("$rc")
  SECS+=("$((SECONDS - t0))")
  if [ "$rc" -eq 0 ]; then
    echo "ci: $name passed"
  else
    echo "ci: $name FAILED (exit $rc)" >&2
  fi
}

# Warnings are errors in CI: src/ builds warning-free, and stays so.
step_build() {
  cmake -B build -S . -DHRF_BUILD_BENCHES=OFF -DHRF_WERROR=ON &&
  cmake --build build -j "$JOBS"
}

step_tier1() {
  ctest --test-dir build --output-on-failure -j "$JOBS" -L tier1
}

# Mirrors check.sh's metrics-schema gate: a traced serve run must export
# Prometheus + JSON files that --mode metrics-check accepts against the
# documented catalogue (docs/observability.md).
step_metrics_schema() {
  local cli=build/tools/hrf_cli dir rc=0
  dir="$(mktemp -d)"
  {
    "$cli" --mode gen --dataset susy --samples 1500 --out "$dir/d.hrfd" > /dev/null &&
    "$cli" --mode train --data "$dir/d.hrfd" --trees 6 --depth 7 \
           --out "$dir/m.hrff" > /dev/null &&
    "$cli" --mode serve --data "$dir/d.hrfd" --model "$dir/m.hrff" \
           --backend gpu-sim --variant hybrid --sd 4 \
           --trace-sample 1.0 --metrics-out "$dir/metrics.prom" \
           --workers 2 --clients 2 --requests 3 --batch 64 > "$dir/serve.log" 2>&1 &&
    "$cli" --mode metrics-check --metrics "$dir/metrics.prom"
  } || rc=$?
  rm -rf "$dir"
  return "$rc"
}

# Incident-bundle schema gate (docs/observability.md, "Time series,
# SLOs, and incident bundles"): a serve run with the monitor armed and a
# deterministic --trigger-incident must drop a bundle that --mode
# incident accepts against the "hrf-incident" v1 schema.
step_incident_schema() {
  local cli=build/tools/hrf_cli dir rc=0
  dir="$(mktemp -d)"
  {
    "$cli" --mode gen --dataset susy --samples 1500 --out "$dir/d.hrfd" > /dev/null &&
    "$cli" --mode train --data "$dir/d.hrfd" --trees 6 --depth 7 \
           --out "$dir/m.hrff" > /dev/null &&
    "$cli" --mode serve --data "$dir/d.hrfd" --model "$dir/m.hrff" \
           --workers 2 --clients 2 --requests 5 --batch 64 \
           --slo-target-success 0.99 --obs-interval-ms 20 \
           --incident-dir "$dir/incidents" --trigger-incident \
           > "$dir/serve.log" 2>&1 &&
    grep -q "incident bundle written:" "$dir/serve.log" &&
    "$cli" --mode incident --bundle "$dir/incidents/incident-000000.json"
  } || rc=$?
  if [ "$rc" -ne 0 ]; then cat "$dir/serve.log" >&2 || true; fi
  rm -rf "$dir"
  return "$rc"
}

# The chaos matrix: every chaos-labeled gtest gate (cluster degraded-mode
# SLOs, batching freeze storm, integrity corruption/hang storm) plus the
# scenario-driven CLI harness.
step_chaos() {
  ctest --test-dir build --output-on-failure -L chaos &&
  tools/chaos.sh build/tools/hrf_cli
}

# The simulator and kernel suites under ASan+UBSan: the coalescer and the
# kernels index per-lane arrays by set bits of a warp mask without bounds
# checks, so an out-of-range lane shows up here first.
SIM_SUITES=(test_cache test_device test_gpu_kernels test_ablation_kernels
            test_golden_counters test_fuzz_differential)
step_sanitize_sim() {
  local t
  cmake -B build-asan -S . -DHRF_BUILD_BENCHES=OFF "-DHRF_SANITIZE=address;undefined" &&
  cmake --build build-asan -j "$JOBS" --target "${SIM_SUITES[@]}" || return
  for t in "${SIM_SUITES[@]}"; do
    build-asan/tests/"$t" --gtest_brief=1 || return
  done
}

step_tsan() {
  tools/check.sh --tsan-only
}

run_step build step_build
run_step tier1 step_tier1
run_step metrics-schema step_metrics_schema
run_step incident-schema step_incident_schema
run_step chaos step_chaos
run_step sanitize-sim step_sanitize_sim
run_step tsan step_tsan

OVERALL=0
{
  printf '{\n  "schema": "hrf-ci",\n  "steps": [\n'
  for i in "${!NAMES[@]}"; do
    comma=","
    [ "$i" -eq $((${#NAMES[@]} - 1)) ] && comma=""
    passed=true
    if [ "${CODES[$i]}" -ne 0 ]; then
      passed=false
      OVERALL=1
    fi
    printf '    {"name": "%s", "passed": %s, "exit_code": %s, "seconds": %s}%s\n' \
           "${NAMES[$i]}" "$passed" "${CODES[$i]}" "${SECS[$i]}" "$comma"
  done
  if [ "$OVERALL" -eq 0 ]; then
    printf '  ],\n  "passed": true\n}\n'
  else
    printf '  ],\n  "passed": false\n}\n'
  fi
} > "$OUT"

echo "ci: report written to $OUT"
if [ "$OVERALL" -ne 0 ]; then
  echo "ci.sh: step failures above" >&2
  exit 1
fi
echo "ci.sh: all steps passed"
