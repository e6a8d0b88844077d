#!/usr/bin/env bash
# Cluster chaos harness (docs/cluster.md): drives `hrf_cli --mode cluster`
# through the degraded-mode scenarios and holds every run to the SLOs —
# success rate >= 99% (per victim tenant when a surge is active) and
# router p95 within 2x the healthy baseline measured first on the same
# host:
#
#   baseline        healthy 4-shard fleet (also sets the p95 reference)
#   kill            a shard killed mid-traffic; failover absorbs it
#   kill-slo        the same kill with the SLO burn-rate engine armed: the
#                   shard-scope alert must fire and the incident bundle it
#                   drops must pass `--mode incident` schema validation
#   freeze          a shard worker wedged mid-dispatch (freeze:shard fault
#                   site); the hedge covers the stalled request
#   partition       a shard cut off from the router, healed mid-run; the
#                   probe loop re-admits it
#   kill-mid-reload a staged rolling reload with a shard killed mid-wave;
#                   the wave must halt and roll the promoted prefix back
#   noisy-neighbor  one tenant surges to 10x its rate (surge:tenant site);
#                   per-tenant quotas shed it with QuotaError while the
#                   victim tenants keep their reserved shares
#   scale-wave      the autoscaler grows the fleet under latency pressure
#                   and shrinks it back, with zero client failures
#   scale-wave-kill the same wave with a shard killed mid-scale-up;
#                   failover + probes keep the victims inside the SLOs
#   scrub-storm     corrupt:replica repeatedly poisons live replicas
#                   across the fleet; CRC scrubbing + shadow audits
#                   detect and rebuild them with zero wrong answers
#   hung-worker     hang:worker wedges dispatches past the watchdog
#                   timeout; every request is rescued and the hung
#                   threads are replaced
#   hung-worker-batched
#                   the same hangs with micro-batching on (--batch-max 8):
#                   a wedged dispatch may hold a whole coalesced batch,
#                   and every member is rescued
#
# Every scenario runs even when an earlier one fails; each one's exit
# code is reported individually and the harness exits nonzero if any
# scenario failed.
#
# Usage: tools/chaos.sh <path-to-hrf_cli>  (tools/check.sh --cluster-chaos
# runs it against the plain build automatically)
set -euo pipefail

CLI="${1:?usage: tools/chaos.sh <path-to-hrf_cli>}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

run() {  # run <name> <slo-p95-ms> <extra cli args...>; overridable via
         # SHARDS/CLIENTS/REQUESTS env (e.g. `SHARDS=2 run scale-wave ...`)
  local name="$1" slo_p95="$2"; shift 2
  echo "=== chaos: $name ==="
  "$CLI" --mode cluster --data "$DIR/d.hrfd" \
         --shards "${SHARDS:-4}" --clients "${CLIENTS:-4}" \
         --requests "${REQUESTS:-30}" --batch 128 \
         --slo-success 0.99 --slo-p95-ms "$slo_p95" \
         "$@" > "$DIR/$name.log" 2>&1 || {
    echo "chaos: $name FAILED" >&2
    cat "$DIR/$name.log" >&2
    return 1
  }
  grep -q "cluster: clean shutdown" "$DIR/$name.log" || {
    echo "chaos: $name did not shut down cleanly" >&2
    cat "$DIR/$name.log" >&2
    return 1
  }
  grep "cluster summary:" "$DIR/$name.log"
}

expect() {  # expect <scenario> <pattern> <message>
  grep -q "$2" "$DIR/$1.log" || { echo "chaos: $3" >&2; return 1; }
}

scenario_kill() {
  run kill "$SLO_P95" --model "$DIR/m.hrff" --kill-shard 1 --chaos-delay-ms 5 &&
  expect kill "shard 1: down" "killed shard not reported down"
}

# The kill scenario with the SLO burn-rate engine armed: failover keeps
# client-visible success perfect, so only the shard-scope objective can
# page on the dead shard. The alert must fire, the monitor must drop an
# incident bundle, and `--mode incident` must accept the bundle from
# disk with the breaker transition and the alert both on the event tape.
# Traffic is sized to outlast the kill: breaker events only exist if
# requests (or probes) hit the corpse after it died.
scenario_kill_slo() {
  REQUESTS=400 run kill-slo "$SLO_P95" --model "$DIR/m.hrff" \
      --kill-shard 1 --chaos-delay-ms 20 \
      --slo-target-success 0.999 --obs-interval-ms 20 \
      --slo-window-fast-ms 200 --slo-window-slow-ms 1000 \
      --slo-burn-fast 10 --slo-burn-slow 2 \
      --incident-dir "$DIR/incidents" &&
  expect kill-slo "slo alert fired: objective=success_rate scope=shard:1" \
      "the dead shard never fired its SLO alert" &&
  expect kill-slo "incident bundle written:" "no incident bundle was written" &&
  "$CLI" --mode incident --bundle "$DIR/incidents/incident-000000.json" \
      > "$DIR/kill-slo-check.log" 2>&1 || {
    echo "chaos: incident bundle failed schema validation" >&2
    cat "$DIR/kill-slo-check.log" >&2
    return 1
  }
  grep -q "incident-check: .* ok" "$DIR/kill-slo-check.log" || {
    echo "chaos: incident-check did not report ok" >&2
    cat "$DIR/kill-slo-check.log" >&2
    return 1
  }
  grep -q "event: \[breaker\]" "$DIR/kill-slo-check.log" || {
    echo "chaos: bundle is missing the breaker transition event" >&2
    cat "$DIR/kill-slo-check.log" >&2
    return 1
  }
  grep -q "event: \[alert\] slo_fired" "$DIR/kill-slo-check.log" || {
    echo "chaos: bundle is missing the slo_fired alert event" >&2
    cat "$DIR/kill-slo-check.log" >&2
    return 1
  }
}

# Freeze is gated on success + hedging, not the 2x p95 bound: a hedged
# request's floor is the hedge delay itself, which can exceed 2x a
# sub-millisecond healthy baseline by design.
scenario_freeze() {
  run freeze 0 --model "$DIR/m.hrff" \
      --inject-fault freeze:shard:2 --hedge-ms 15 &&
  expect freeze "hedged=[1-9]" "frozen shard never triggered a hedge"
}

scenario_partition() {
  run partition "$SLO_P95" --model "$DIR/m.hrff" \
      --partition-shard 2 --chaos-delay-ms 5 --heal-ms 100 &&
  expect partition "chaos: healed shard 2" "partition was never healed"
}

scenario_kill_mid_reload() {
  run kill-mid-reload "$SLO_P95" --model-store "$DIR/store" \
      --backend gpu-sim --variant hybrid --sd 4 \
      --rolling-reload --publish-live "$DIR/m.hrff" --canary-requests 1 \
      --kill-shard 3 --chaos-delay-ms 2 &&
  expect kill-mid-reload "HALTED" "killed shard did not halt the rolling-reload wave"
}

# The noisy neighbor: the surger sends 10x the victims' rate and each of
# its admitted requests hogs a worker for 1 ms; its queue share is one
# slot per shard, so admission (QuotaError), not deadlines, must absorb
# the surge while both victims keep perfect success (the CLI gates each
# victim tenant's success rate on its own).
scenario_noisy_neighbor() {
  CLIENTS=2 run noisy-neighbor "$SLO_P95" --model "$DIR/m.hrff" \
      --workers 2 --queue-cap 5 \
      --tenants victim-a,victim-b,surger --tenant-weights 2,2,1 \
      --surge surger --surge-factor 10 --surge-ms 1 &&
  expect noisy-neighbor "quota_shed=[1-9]" "the surge was never quota-shed"
}

# Autoscale wave: aggressive thresholds force a scale-up under the client
# load; the run must end clean (zero failed requests through every
# resize) with at least one scale-up on the books.
scenario_scale_wave() {
  SHARDS=2 CLIENTS=8 REQUESTS=300 run scale-wave "$SLO_P95" \
      --model "$DIR/m.hrff" --workers 1 --queue-cap 64 \
      --autoscale --autoscale-min 1 --autoscale-max 4 \
      --autoscale-interval-ms 10 --autoscale-up-p95-ms 0.2 \
      --autoscale-down-p95-ms 0.01 &&
  expect scale-wave "scale_ups=[1-9]" "the autoscaler never scaled up" &&
  expect scale-wave " failed=0 " "a resize produced client-visible failures"
}

scenario_scale_wave_kill() {
  SHARDS=2 CLIENTS=8 REQUESTS=300 run scale-wave-kill "$SLO_P95" \
      --model "$DIR/m.hrff" --workers 1 --queue-cap 64 \
      --autoscale --autoscale-min 1 --autoscale-max 4 \
      --autoscale-interval-ms 10 --autoscale-up-p95-ms 0.2 \
      --autoscale-down-p95-ms 0.01 \
      --kill-shard 1 --chaos-delay-ms 20 &&
  expect scale-wave-kill "scale_ups=[1-9]" "the autoscaler never scaled up" &&
  expect scale-wave-kill "shard 1: down" "killed shard not reported down"
}

# Scrub storm: gated on success (audits serve the oracle answer on any
# divergence, so a wrong prediction is impossible), not the 2x p95 bound —
# auditing every request reshapes the latency profile by design. The
# fleet must actually detect and rebuild poisoned replicas.
scenario_scrub_storm() {
  run scrub-storm 0 --model "$DIR/m.hrff" \
      --inject-fault corrupt:replica:6 \
      --scrub-interval-ms 5 --audit-sample 1 &&
  expect scrub-storm "replica_repairs=[1-9]" "no corrupted replica was ever repaired"
}

# Hung workers: same success-only gate (a rescue's floor is the watchdog
# timeout, which dwarfs a sub-millisecond healthy p95). Every wedged
# dispatch must be answered by the watchdog and the thread replaced.
scenario_hung_worker() {
  run hung-worker 0 --model "$DIR/m.hrff" \
      --inject-fault hang:worker:3 --hang-timeout-ms 20 &&
  expect hung-worker "worker_restarts=[1-9]" "no hung worker was ever replaced"
}

# The hung-worker gate with micro-batching on: the watchdog's claim
# window holds the whole batch, so a wedged multi-member dispatch is
# rescued member by member exactly like a lone request.
scenario_hung_worker_batched() {
  run hung-worker-batched 0 --model "$DIR/m.hrff" \
      --inject-fault hang:worker:3 --hang-timeout-ms 20 --batch-max 8 &&
  expect hung-worker-batched "worker_restarts=[1-9]" "no hung worker was ever replaced"
}

"$CLI" --mode gen --dataset susy --samples 2000 --out "$DIR/d.hrfd" > /dev/null
"$CLI" --mode train --data "$DIR/d.hrfd" --trees 8 --depth 8 --out "$DIR/m.hrff" > /dev/null
"$CLI" --mode publish --store "$DIR/store" --model "$DIR/m.hrff" \
       --layout hier --sd 4 --note gen1 > /dev/null

# Healthy baseline: perfect success, and its p95 anchors the degraded-mode
# latency SLO (acceptance: chaos p95 within 2x healthy, floored at 10ms so
# a sub-millisecond baseline doesn't turn scheduler jitter into a breach).
# The baseline is load-bearing for every scenario, so it alone is fatal.
run baseline 0 --model "$DIR/m.hrff"
grep -q "success=1.0000" "$DIR/baseline.log" || {
  echo "chaos: baseline must have perfect success" >&2; exit 1; }
P95_MS="$(sed -n 's/.* p95_ms=\([0-9.]*\).*/\1/p' "$DIR/baseline.log")"
SLO_P95="$(awk -v p="$P95_MS" 'BEGIN { v = 2 * p; if (v < 10) v = 10; printf "%.3f", v }')"
echo "chaos: healthy p95 ${P95_MS} ms -> degraded-mode SLO ${SLO_P95} ms"

# Run every scenario even after a failure; report each exit code and
# propagate the worst one.
OVERALL=0
for sc in kill kill-slo freeze partition kill-mid-reload noisy-neighbor \
          scale-wave scale-wave-kill scrub-storm hung-worker hung-worker-batched; do
  rc=0
  "scenario_${sc//-/_}" || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "chaos: $sc ok"
  else
    echo "chaos: $sc FAILED (exit $rc)" >&2
    OVERALL=1
  fi
done

if [ "$OVERALL" -ne 0 ]; then
  echo "chaos.sh: scenario failures above" >&2
  exit "$OVERALL"
fi
echo "chaos.sh: all scenarios held the degraded-mode SLOs"
