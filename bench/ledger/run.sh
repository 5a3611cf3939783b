#!/usr/bin/env bash
# run.sh — build and run the ledger, the repository's benchmark.
#
#   bench/ledger/run.sh [--workload=NAME|all] [--seed=N] [--seconds=S]
#                       [--trace[=0|1]] [--smoke]
#
# Both "--flag=value" and "--flag value" work.  Builds bench_ledger and the
# real tangled_served in Release (into $CARGO_TARGET_DIR/ledger when that is
# set, else .bench_build/ledger at the repository root), runs the chosen
# workloads, prints every metric as "workload metric value unit", writes a
# JSON summary under the build directory's out/, and prints that summary as
# the last line.  Exits nonzero on a build failure, a usage error, or any
# correctness, accounting or drain failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root is not a Tangled source tree (no CMakeLists.txt/src)" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-$root/.bench_build}/ledger"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
log="$build/build.log"
# A cache configured from another source tree cannot be reused.
if [[ -f "$build/CMakeCache.txt" ]] &&
   ! grep -qxF "CMAKE_HOME_DIRECTORY:INTERNAL=$here" "$build/CMakeCache.txt"; then
  rm -rf "$build"
  mkdir -p "$build"
fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  if ! cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >"$log" 2>&1; then
    echo "run.sh: configure failed; see $log" >&2
    tail -n 20 "$log" >&2
    exit 2
  fi
fi
jobs="$(nproc)"
(( jobs > 4 )) && jobs=4
if ! cmake --build "$build" --target bench_ledger -j "$jobs" >>"$log" 2>&1; then
  echo "run.sh: build failed; see $log" >&2
  tail -n 20 "$log" >&2
  exit 2
fi

out="$build/out"
mkdir -p "$out"
tmp="$(mktemp -d "$out/tmp.XXXXXX")"
pid=""
cleanup() {
  # The generator kills its daemon when signalled and reaps it; wait for
  # it so no process outlives this script, then drop the temporary journals.
  if [[ -n "$pid" ]]; then
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 143' TERM INT

"$build/bench_ledger" --served="$build/tangled/examples/tangled_served" \
  --out="$out" --tmp="$tmp" "$@" &
pid=$!
status=0
wait "$pid" || status=$?
pid=""
exit "$status"
