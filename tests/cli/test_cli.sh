#!/usr/bin/env bash
# End-to-end exercise of the hrf_cli tool: gen -> train -> info -> layout
# -> predict on all three backends. Usage: test_cli.sh <path-to-hrf_cli>
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

"$CLI" --mode gen --dataset susy --samples 20000 --out "$DIR/d.hrfd" > "$DIR/gen.log" 2>&1
check "gen reports dimensions" "20000 samples x 18 features" "$DIR/gen.log"

"$CLI" --mode train --data "$DIR/d.hrfd" --split --trees 15 --depth 10 \
       --out "$DIR/m.hrff" > "$DIR/train.log" 2>&1
check "train reports tree count" "trained 15 trees" "$DIR/train.log"
check "train reports holdout accuracy" "holdout accuracy" "$DIR/train.log"
[ -f "$DIR/m.hrff" ] && echo "ok: model file written" || { echo "FAIL: no model file"; FAILURES=$((FAILURES+1)); }

"$CLI" --mode info --model "$DIR/m.hrff" > "$DIR/info.log" 2>&1
check "info shows max depth" "max depth" "$DIR/info.log"
check "info shows feature importances" "importance" "$DIR/info.log"

"$CLI" --mode layout --model "$DIR/m.hrff" > "$DIR/layout.log" 2>&1
check "layout sweeps SD values" "bytes vs CSR" "$DIR/layout.log"

for backend in cpu gpu-sim fpga-sim; do
  "$CLI" --mode predict --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
         --backend "$backend" --variant independent --sd 6 \
         --out "$DIR/p_$backend.csv" > "$DIR/predict_$backend.log" 2>&1
  check "predict on $backend reports accuracy" "accuracy vs dataset labels" "$DIR/predict_$backend.log"
  check "predict on $backend prints confusion matrix" "precision" "$DIR/predict_$backend.log"
  [ -s "$DIR/p_$backend.csv" ] && echo "ok: predictions csv ($backend)" || { echo "FAIL: csv $backend"; FAILURES=$((FAILURES+1)); }
done

# Predictions must be identical across backends.
if cmp -s "$DIR/p_cpu.csv" "$DIR/p_gpu-sim.csv" && cmp -s "$DIR/p_cpu.csv" "$DIR/p_fpga-sim.csv"; then
  echo "ok: backend predictions identical"
else
  echo "FAIL: backend predictions differ"
  FAILURES=$((FAILURES + 1))
fi

# --- Robustness: offline layout compilation + fault injection ------------

"$CLI" --mode compile --model "$DIR/m.hrff" --layout hier --sd 6 \
       --out "$DIR/l.hrfl" > "$DIR/compile.log" 2>&1
check "compile writes a hierarchical blob" "compiled hierarchical layout" "$DIR/compile.log"

"$CLI" --mode predict --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend cpu --variant independent --layout-blob "$DIR/l.hrfl" \
       --out "$DIR/p_blob.csv" > "$DIR/predict_blob.log" 2>&1
check "predict from precompiled blob" "accuracy vs dataset labels" "$DIR/predict_blob.log"
if cmp -s "$DIR/p_cpu.csv" "$DIR/p_blob.csv"; then
  echo "ok: blob predictions match built-layout predictions"
else
  echo "FAIL: blob predictions differ"
  FAILURES=$((FAILURES + 1))
fi

# A transient GPU fault must be absorbed by the degradation plan (the
# variant downgrade), and a persistent one must degrade all the way to
# cpu-native — both with predictions identical to the clean CPU run.
for spec in resource:gpu resource:gpu:-1; do
  if "$CLI" --mode predict --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
         --backend gpu-sim --variant hybrid --sd 6 --inject-fault "$spec" \
         --out "$DIR/p_inject.csv" > "$DIR/predict_inject.log" 2>&1; then
    check "injected $spec degrades gracefully" "degraded: " "$DIR/predict_inject.log"
    if cmp -s "$DIR/p_cpu.csv" "$DIR/p_inject.csv"; then
      echo "ok: degraded predictions identical to clean cpu run ($spec)"
    else
      echo "FAIL: degraded predictions differ ($spec)"
      FAILURES=$((FAILURES + 1))
    fi
  else
    echo "FAIL: degradation plan should absorb $spec"
    FAILURES=$((FAILURES + 1))
  fi
done
check "persistent fault reached cpu-native" "cpu-native" "$DIR/predict_inject.log"

# A bit-flipped layout blob must be rejected by its checksum, not served.
if "$CLI" --mode predict --model "$DIR/m.hrff" --data "$DIR/d.hrfd" \
       --backend cpu --variant independent --layout-blob "$DIR/l.hrfl" \
       --inject-fault bitflip:layout > "$DIR/bitflip.log" 2>&1; then
  echo "FAIL: corrupted blob should exit nonzero"
  FAILURES=$((FAILURES + 1))
else
  check "corrupted blob reports checksum error" "checksum mismatch" "$DIR/bitflip.log"
fi

# Error paths must fail cleanly, not crash.
if "$CLI" --mode predict --model /nonexistent.hrff --data "$DIR/d.hrfd" > "$DIR/err.log" 2>&1; then
  echo "FAIL: missing model should exit nonzero"
  FAILURES=$((FAILURES + 1))
else
  check "missing model reports an error" "error:" "$DIR/err.log"
fi
if "$CLI" --mode bogus > "$DIR/err2.log" 2>&1; then
  echo "FAIL: unknown mode should exit nonzero"
  FAILURES=$((FAILURES + 1))
else
  echo "ok: unknown mode rejected"
fi

echo "cli test failures: $FAILURES"
exit "$FAILURES"
