#!/usr/bin/env bash
# Runs the tier-1 test suite three ways: a plain RelWithDebInfo build, an
# ASan+UBSan build (HRF_SANITIZE=address;undefined), and a TSan build
# (HRF_SANITIZE=thread) running the concurrency suites. All must be clean.
#
# The plain build also runs a reload-chaos step: a publisher killed
# mid-write (crash:publish / crash:manifest fault sites) must leave the
# versioned model store recoverable and still serveable — a
# metrics-schema step (also alone, --metrics-schema): a traced serve run
# and a micro-batching 2-shard cluster run must export Prometheus + JSON
# files that hrf_cli --mode metrics-check accepts against the documented
# metric catalogue (docs/observability.md) — and a cluster-chaos step:
# the degraded-mode SLO suite (ctest -L chaos: kill-shard-mid-reload and
# partition scenarios) plus the tools/chaos.sh CLI harness
# (docs/cluster.md). The TSan build also runs the cluster suites.
#
# A qos-chaos step runs the multi-tenant QoS + autoscaler chaos gates
# (noisy-neighbor surge, autoscale waves) under ThreadSanitizer.
#
# A batch-chaos step runs the micro-batching suites (BatchFormer units,
# batched-server integration, freeze:batcher storm) under ThreadSanitizer:
# no lost/duplicated responses and balanced per-tenant QoS counters while
# formed batches are wedged at dispatch (docs/serving.md).
#
# An integrity-chaos step runs the silent-corruption suites (CRC
# cross-check property, scrubber/audit/watchdog units, corrupt:replica +
# hang:worker storm) under ThreadSanitizer: corrupted replicas must be
# detected and rebuilt and hung workers rescued with zero wrong, lost, or
# duplicated answers (docs/robustness.md).
#
# The TSan matrix also covers the third observability pillar: the
# flight-recorder ring's concurrent writers/readers stress, the Monitor's
# tick/snapshot/trigger surfaces, and the SLO engine + windowed registry
# units (docs/observability.md, "Time series, SLOs, and incident
# bundles"). The plain build's CI pipeline (tools/ci.sh) additionally
# gates the incident-bundle schema end to end.
#
# Usage: tools/check.sh [--plain-only|--sanitize-only|--tsan-only|
#                        --metrics-schema|--cluster-chaos|--qos-chaos|
#                        --batch-chaos|--integrity-chaos]...
# With several flags, each flag's suites run in turn, in the order given.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
USAGE="usage: tools/check.sh [--plain-only|--sanitize-only|--tsan-only|--metrics-schema|--cluster-chaos|--qos-chaos|--batch-chaos|--integrity-chaos]..."

# The shared build/ tree is configured without -DHRF_BUILD_BENCHES, so it
# keeps whatever its cache holds (bench/ targets included by default);
# only the private sanitizer trees turn the benches off.
run_suite() {  # run_suite <build-dir> <extra cmake args...>
  local dir="$1"; shift
  echo "=== configure $dir ==="
  cmake -B "$dir" -S . "$@"
  echo "=== build $dir ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== test $dir ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

reload_chaos() {  # reload_chaos <build-dir>
  local cli="$1/tools/hrf_cli"
  local dir; dir="$(mktemp -d)"
  echo "=== reload-chaos ($cli) ==="
  "$cli" --mode gen --dataset susy --samples 1500 --out "$dir/d.hrfd" > /dev/null
  "$cli" --mode train --data "$dir/d.hrfd" --trees 6 --depth 7 --out "$dir/m.hrff" > /dev/null
  "$cli" --mode publish --store "$dir/store" --model "$dir/m.hrff" --layout hier --sd 4 > /dev/null

  # Kill the publisher at both crash sites; neither may corrupt the store.
  local rc site
  for site in crash:publish crash:manifest; do
    rc=0
    "$cli" --mode publish --store "$dir/store" --model "$dir/m.hrff" --layout hier --sd 4 \
           --inject-fault "$site" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 137 ]; then
      echo "reload-chaos: expected $site to kill the publisher (exit 137), got $rc" >&2
      rm -rf "$dir"; return 1
    fi
  done

  # Recovery: quarantine the partial publish, roll the completed one
  # forward (crash:manifest landed gen.json before dying), keep serving.
  "$cli" --mode store --store "$dir/store" > "$dir/store.log"
  grep -q "current generation: 3" "$dir/store.log" || {
    echo "reload-chaos: store did not recover to the newest complete generation" >&2
    cat "$dir/store.log" >&2; rm -rf "$dir"; return 1; }
  grep -q "quarantined:" "$dir/store.log" || {
    echo "reload-chaos: partial generation was not quarantined" >&2
    cat "$dir/store.log" >&2; rm -rf "$dir"; return 1; }
  "$cli" --mode serve --data "$dir/d.hrfd" --model-store "$dir/store" \
         --backend gpu-sim --variant hybrid --sd 4 \
         --workers 2 --clients 2 --requests 3 --batch 64 > "$dir/serve.log" 2>&1 || {
    echo "reload-chaos: serving from the recovered store failed" >&2
    cat "$dir/serve.log" >&2; rm -rf "$dir"; return 1; }
  grep -q "serve: clean shutdown" "$dir/serve.log" || {
    echo "reload-chaos: recovered store did not serve cleanly" >&2
    cat "$dir/serve.log" >&2; rm -rf "$dir"; return 1; }
  rm -rf "$dir"
  echo "reload-chaos: store survived both crash sites"
}

metrics_schema() {  # metrics_schema <build-dir>
  local cli="$1/tools/hrf_cli"
  local dir; dir="$(mktemp -d)"
  echo "=== metrics-schema ($cli) ==="
  "$cli" --mode gen --dataset susy --samples 1500 --out "$dir/d.hrfd" > /dev/null
  "$cli" --mode train --data "$dir/d.hrfd" --trees 6 --depth 7 --out "$dir/m.hrff" > /dev/null
  "$cli" --mode serve --data "$dir/d.hrfd" --model "$dir/m.hrff" \
         --backend gpu-sim --variant hybrid --sd 4 \
         --trace-sample 1.0 --metrics-out "$dir/metrics.prom" \
         --workers 2 --clients 2 --requests 3 --batch 64 > "$dir/serve.log" 2>&1 || {
    echo "metrics-schema: traced serve run failed" >&2
    cat "$dir/serve.log" >&2; rm -rf "$dir"; return 1; }
  # A micro-batching 2-shard fleet: cluster and shard families, and the
  # batch_size stage merged across shards.
  "$cli" --mode cluster --data "$dir/d.hrfd" --model "$dir/m.hrff" \
         --shards 2 --batch-max 4 --clients 2 --requests 4 --batch 64 \
         --metrics-out "$dir/cluster.prom" > "$dir/cluster.log" 2>&1 || {
    echo "metrics-schema: cluster run failed" >&2
    cat "$dir/cluster.log" >&2; rm -rf "$dir"; return 1; }
  local prom
  for prom in metrics.prom cluster.prom; do
    "$cli" --mode metrics-check --metrics "$dir/$prom" || {
      echo "metrics-schema: exported $prom failed the schema check" >&2
      rm -rf "$dir"; return 1; }
  done
  grep -q 'stage="batch_size"' "$dir/cluster.prom" || {
    echo "metrics-schema: cluster export lacks the batch_size stage" >&2
    rm -rf "$dir"; return 1; }
  rm -rf "$dir"
  echo "metrics-schema: serve and cluster exports match the documented catalogue"
}

cluster_chaos() {  # cluster_chaos <build-dir>
  echo "=== cluster-chaos ($1) ==="
  # The chaos-labeled gtest suite: kill-shard-mid-rolling-reload,
  # partition-with-heal, noisy-neighbor surge, and autoscale waves,
  # all against the degraded-mode SLOs (success >= 99%, p95 within 2x
  # the healthy baseline).
  ctest --test-dir "$1" --output-on-failure -L chaos
  # The CLI-driven harness exercises the same scenarios end to end
  # (plus freeze/hedging) through hrf_cli --mode cluster.
  tools/chaos.sh "$1/tools/hrf_cli"
  echo "cluster-chaos: degraded-mode SLOs held"
}

qos_chaos() {  # qos_chaos: the QoS/autoscaler chaos gates under TSan
  echo "=== configure build-tsan (qos-chaos) ==="
  cmake -B build-tsan -S . -DHRF_BUILD_BENCHES=OFF "-DHRF_SANITIZE=thread"
  echo "=== build build-tsan (qos-chaos) ==="
  cmake --build build-tsan -j "$JOBS" --target test_qos test_autoscaler test_cluster_chaos
  echo "=== test build-tsan (qos-chaos: quotas, limiter, autoscaler, chaos SLOs) ==="
  OMP_NUM_THREADS=1 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure \
          -R '(TenantQuotas|AdaptiveLimiter|Autoscaler|ClusterChaos)'
  echo "qos-chaos: QoS + autoscaler SLOs held under TSan"
}

batch_chaos() {  # batch_chaos: the micro-batching gates under TSan
  echo "=== configure build-tsan (batch-chaos) ==="
  cmake -B build-tsan -S . -DHRF_BUILD_BENCHES=OFF "-DHRF_SANITIZE=thread"
  echo "=== build build-tsan (batch-chaos) ==="
  cmake --build build-tsan -j "$JOBS" --target test_batcher test_batch_chaos
  echo "=== test build-tsan (batch-chaos: former units, batched serving, freeze storm) ==="
  OMP_NUM_THREADS=1 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure \
          -R '(BackendBatchGranularity|BatchOptions|BatchFormer|BatchedServer|BatchChaos)'
  echo "batch-chaos: no lost or duplicated responses under freeze:batcher"
}

integrity_chaos() {  # integrity_chaos: the silent-corruption gates under TSan
  echo "=== configure build-tsan (integrity-chaos) ==="
  cmake -B build-tsan -S . -DHRF_BUILD_BENCHES=OFF "-DHRF_SANITIZE=thread"
  echo "=== build build-tsan (integrity-chaos) ==="
  cmake --build build-tsan -j "$JOBS" --target test_integrity test_integrity_chaos
  echo "=== test build-tsan (integrity-chaos: CRC cross-check, scrubber, audits, watchdog, storm) ==="
  OMP_NUM_THREADS=1 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure \
          -R '(IntegrityCrc|IntegrityCorrupt|IntegrityServer|IntegrityChaos)'
  echo "integrity-chaos: corruption detected and repaired, hung workers rescued, under TSan"
}

run_mode() {  # run_mode <mode>: every suite one flag (or "all") selects
  local MODE="$1"
  case "$MODE" in
    all|--plain-only)
      run_suite build
      reload_chaos build
      metrics_schema build
      ;;&
    --metrics-schema)
      cmake -B build -S .
      cmake --build build -j "$JOBS" --target hrf_cli
      metrics_schema build
      ;;
    all|--plain-only|--cluster-chaos)
      if [ "$MODE" = --cluster-chaos ]; then
        cmake -B build -S .
        cmake --build build -j "$JOBS" --target hrf_cli test_cluster_chaos
      fi
      cluster_chaos build
      ;;&
    all|--sanitize-only)
      # Sanitized configs keep examples/tools on so the CLI end-to-end test
      # (which needs the hrf_cli target) runs under ASan+UBSan too.
      run_suite build-asan -DHRF_BUILD_BENCHES=OFF "-DHRF_SANITIZE=address;undefined"
      ;;&
    all|--tsan-only)
      # TSan build runs only the concurrency suites (serving layer, fault
      # injector, counter registry, and the simulator, whose SMs run on
      # several threads per launch): that is where the data races live,
      # and libgomp is not TSan-instrumented, so the OpenMP-parallel
      # numeric suites would drown the signal in false positives. For the
      # same reason the tests themselves run with OpenMP forced sequential.
      echo "=== configure build-tsan ==="
      cmake -B build-tsan -S . -DHRF_BUILD_BENCHES=OFF "-DHRF_SANITIZE=thread"
      echo "=== build build-tsan ==="
      cmake --build build-tsan -j "$JOBS" --target test_server test_forest_sharing test_circuit_breaker test_fault test_metrics test_histogram test_model_store test_reload test_trace test_obs test_cluster test_qos test_autoscaler test_cluster_chaos test_batcher test_batch_chaos test_integrity test_integrity_chaos test_flight_recorder test_monitor test_slo test_timeseries test_device test_gpu_kernels test_golden_counters test_fuzz_differential
      echo "=== test build-tsan (concurrency suites) ==="
      OMP_NUM_THREADS=1 TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
              -R '(ForestServer|CircuitBreaker|FaultInjector|CounterRegistry|LatencyHistogram|HistogramDelta|ModelStore|ModelReload|Tracer|Span\.|Trace\.|RollupRegistry|BackendRollup|Cluster|TenantQuotas|AdaptiveLimiter|Autoscaler|BackendBatchGranularity|BatchOptions|BatchFormer|BatchedServer|BatchChaos|IntegrityCrc|IntegrityCorrupt|IntegrityServer|IntegrityChaos|FlightRecorder|MonitorTest|SloEngine|TimeSeriesRegistry|Device\.|DeviceArray\.|SimThreads|RunBlocks|KernelEquivalence|GpuKernels|GoldenCounters|DifferentialFuzz)'
      ;;&
    all|--qos-chaos)
      if [ "$MODE" = --qos-chaos ]; then
        qos_chaos
      fi
      ;;&
    all|--batch-chaos)
      if [ "$MODE" = --batch-chaos ]; then
        batch_chaos
      fi
      ;;&
    all|--integrity-chaos)
      if [ "$MODE" = --integrity-chaos ]; then
        integrity_chaos
      fi
      ;;&
  esac
}

MODES=("$@")
[ "${#MODES[@]}" -gt 0 ] || MODES=(all)
for mode in "${MODES[@]}"; do  # reject a bad flag before any suite runs
  case "$mode" in
    all|--plain-only|--sanitize-only|--tsan-only|--metrics-schema|--cluster-chaos|--qos-chaos|--batch-chaos|--integrity-chaos) ;;
    *) echo "$USAGE" >&2; exit 2 ;;
  esac
done
for mode in "${MODES[@]}"; do
  echo "=== check.sh $mode ==="
  run_mode "$mode"
done
echo "check.sh: all requested suites passed (${MODES[*]})"
