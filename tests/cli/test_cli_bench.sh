#!/usr/bin/env bash
# End-to-end exercise of `hrf_cli --mode bench`: run the sweep twice on
# simulated backends (deterministic, so the modeled values are exact),
# validate the emitted JSON schema, and check both sides of the --compare
# regression gate. Usage: test_cli_bench.sh <path-to-hrf_cli>
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

BENCH_ARGS=(--mode bench --backends gpu-sim,fpga-sim --batches 32,64
            --repeats 3 --trees 8 --depth 8 --features 12 --sd 8)

# --- Baseline run writes a schema-versioned report ------------------------
if "$CLI" "${BENCH_ARGS[@]}" --out "$DIR/base.json" > "$DIR/base.log" 2>&1; then
  echo "ok: bench run exits 0"
else
  echo "FAIL: bench run exited nonzero"
  cat "$DIR/base.log"
  FAILURES=$((FAILURES + 1))
fi
[ -f "$DIR/base.json" ] || { echo "FAIL: bench wrote no report"; exit 1; }

check "report carries the schema name" '"schema": "hrf-bench"' "$DIR/base.json"
check "report carries the schema version" '"schema_version": 2' "$DIR/base.json"
check "report fingerprints the environment" '"compiler"' "$DIR/base.json"
check "report records the repeat policy" '"repeat_runs": 3' "$DIR/base.json"
check "report describes the synthetic forest" '"num_trees": 8' "$DIR/base.json"
check "report records the layout" '"subtree_depth": 8' "$DIR/base.json"
check "simulated cases are modeled" '"unit": "modeled"' "$DIR/base.json"
check "modeled cases carry ns/query" '"ns_per_query"' "$DIR/base.json"
check "gpu-sim cases carry every counter" '"dram_transactions"' "$DIR/base.json"
check "fpga-sim cases carry cycle counts" '"total_cycles"' "$DIR/base.json"
check "simulated cases carry host time" '"host_ns_per_query"' "$DIR/base.json"
check "sweep covers gpu-sim" '"key": "hybrid/gpu-sim/32"' "$DIR/base.json"
check "sweep covers fpga-sim" '"key": "hybrid/fpga-sim/64"' "$DIR/base.json"
check "console table renders the sweep" "modeled ns/q" "$DIR/base.log"

# --- Identical rerun passes the compare gate ------------------------------
if "$CLI" "${BENCH_ARGS[@]}" --out "$DIR/rerun.json" \
       --compare "$DIR/base.json" > "$DIR/compare_ok.log" 2>&1; then
  echo "ok: compare against identical baseline exits 0"
else
  echo "FAIL: compare against identical baseline exited nonzero"
  cat "$DIR/compare_ok.log"
  FAILURES=$((FAILURES + 1))
fi
check "compare reports success" "bench compare vs .*: ok" "$DIR/compare_ok.log"

# --- A modeled value off by its smallest step must trip the gate ---------
# One DRAM transaction more or fewer in the first gpu-sim case: modeled
# numbers are gated exactly, so an "improvement" fails as well.
for step in 1 -1; do
  awk -v step="$step" '!done && /"dram_transactions": [0-9]+/ {
         n = $0; sub(/.*"dram_transactions": /, "", n); sub(/[^0-9].*/, "", n)
         sub(/"dram_transactions": [0-9]+/, "\"dram_transactions\": " (n + step)); done = 1
       } { print }' "$DIR/base.json" > "$DIR/doctored.json"
  if cmp -s "$DIR/base.json" "$DIR/doctored.json"; then
    echo "FAIL: could not doctor a dram_transactions value"
    FAILURES=$((FAILURES + 1))
  fi
  if "$CLI" "${BENCH_ARGS[@]}" --out "$DIR/regressed.json" \
         --compare "$DIR/doctored.json" > "$DIR/compare_fail.log" 2>&1; then
    echo "FAIL: dram_transactions off by $step should exit nonzero"
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: dram_transactions off by $step exits nonzero"
  fi
  check "the changed modeled value is named ($step)" \
        "REGRESSION csr/gpu-sim/32 dram_transactions" \
        "$DIR/compare_fail.log"
  check "compare reports failure ($step)" "FAILED" "$DIR/compare_fail.log"
done

# --- Baseline missing a case must also fail -------------------------------
if "$CLI" --mode bench --backends gpu-sim --batches 32 --repeats 2 \
       --trees 8 --depth 8 --features 12 --out "$DIR/narrow.json" \
       --compare "$DIR/base.json" > "$DIR/compare_missing.log" 2>&1; then
  echo "FAIL: dropped cases should exit nonzero"
  FAILURES=$((FAILURES + 1))
else
  echo "ok: dropped cases exit nonzero"
fi
check "missing cases are named" "MISSING" "$DIR/compare_missing.log"

# --- Error path: comparing against a non-report fails cleanly -------------
echo '{"schema":"not-a-bench","schema_version":1}' > "$DIR/garbage.json"
if "$CLI" "${BENCH_ARGS[@]}" --out "$DIR/x.json" \
       --compare "$DIR/garbage.json" > "$DIR/err.log" 2>&1; then
  echo "FAIL: comparing against a non-report should exit nonzero"
  FAILURES=$((FAILURES + 1))
else
  check "schema mismatch reports an error" "error:" "$DIR/err.log"
fi

echo "cli bench test failures: $FAILURES"
exit "$FAILURES"
