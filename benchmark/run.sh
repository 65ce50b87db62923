#!/usr/bin/env bash
# Build the standalone benchmark from source and run its workloads, each in
# its own single-threaded process.
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace 0|1] [--scale full|smoke] [--out DIR]
#
# Without --workload every workload runs in turn. A run measures for
# --seconds, else for run_seconds in BENCHMARK.json. Each run prints its
# metrics as `name value unit` lines with its one-line JSON result last, and
# writes BENCH_<workload>.json under --out (default: results/ in the build
# directory). The build directory is $CARGO_TARGET_DIR, else .bench_build.
# Exits non-zero when the build fails or any unit of a run failed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"

workload="" seed=1 seconds="" trace=0 scale=full out=""
while [ $# -gt 0 ]; do
  arg="$1"
  shift
  case "$arg" in
    --*=*) key="${arg%%=*}" val="${arg#*=}" ;;
    --*)
      if [ $# -eq 0 ]; then
        echo "run.sh: $arg needs a value" >&2
        exit 2
      fi
      key="$arg" val="$1"
      shift
      ;;
    *)
      echo "run.sh: unexpected argument '$arg'" >&2
      exit 2
      ;;
  esac
  case "$key" in
    --workload) workload="$val" ;;
    --seed) seed="$val" ;;
    --seconds) seconds="$val" ;;
    --trace) trace="$val" ;;
    --scale) scale="$val" ;;
    --out) out="$val" ;;
    *)
      echo "run.sh: unknown flag $key" >&2
      exit 2
      ;;
  esac
done
out="${out:-$build/results}"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
mkdir -p "$build" "$out"
if ! { cmake -S benchmark -B "$build" &&
       cmake --build "$build" -j "$jobs"; } >"$build/build.log" 2>&1; then
  echo "run.sh: benchmark build failed (log: $build/build.log)" >&2
  tail -n 20 "$build/build.log" >&2
  exit 1
fi

bin="$build/dstage_bench"
run_one() {
  "$bin" run --workload="$1" --seed="$seed" ${seconds:+--seconds="$seconds"} \
    --trace="$trace" --scale="$scale" --json="$out/BENCH_$1.json"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit
fi

status=0
for w in $("$bin" list); do
  echo "== $w"
  run_one "$w" || status=1
done
exit "$status"
