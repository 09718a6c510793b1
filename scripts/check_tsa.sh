#!/bin/sh
# Thread-safety annotation gate (clang only):
#
#   1. positive: the whole library must compile warning-clean under
#      -Werror=thread-safety (the clang-tsa CMake preset)
#   2. negative: tests/tsa_negative.cpp holds one deliberately
#      unlocked access per annotation in obs/events.hpp and
#      core/parallel_pipeline.hpp, selected by -DTSA_PROBE=n. Probe 0
#      is the correctly-locked control and must build; every probe
#      1..N must be REJECTED. A probe that compiles means its
#      QS_GUARDED_BY/QS_REQUIRES was deleted or broken.
#
# Usage: scripts/check_tsa.sh [--no-build]
#   --no-build  skip the positive preset build (negative probes only)
set -eu

cd "$(dirname "$0")/.."

run_build=1
for arg in "$@"; do
  case "$arg" in
    --no-build) run_build=0 ;;
    *) echo "usage: scripts/check_tsa.sh [--no-build]" >&2; exit 2 ;;
  esac
done

clangxx="${CLANGXX:-clang++}"
if ! command -v "$clangxx" >/dev/null 2>&1; then
  echo "check_tsa: $clangxx not found — the thread-safety analysis is" \
       "clang-only; install clang or set CLANGXX" >&2
  exit 1
fi

jobs="$(nproc 2>/dev/null || echo 4)"

if [ "$run_build" = 1 ]; then
  echo "==> positive: clang-tsa preset (-Werror=thread-safety)"
  CXX="$clangxx" cmake --preset clang-tsa
  cmake --build --preset clang-tsa -j "$jobs"
fi

probes=13
flags="-std=c++20 -fsyntax-only -Isrc -Wthread-safety -Werror=thread-safety"
src=tests/tsa_negative.cpp

echo "==> negative: control probe 0 must compile"
# shellcheck disable=SC2086
"$clangxx" $flags -DTSA_PROBE=0 "$src" || {
  echo "check_tsa: FAIL — the correctly-locked control does not" \
       "compile; the harness itself is broken" >&2
  exit 1
}

fail=0
n=1
while [ "$n" -le "$probes" ]; do
  # shellcheck disable=SC2086
  if "$clangxx" $flags -DTSA_PROBE="$n" "$src" 2>/dev/null; then
    echo "check_tsa: FAIL — probe $n compiled; the annotation it" \
         "trips was removed (see tests/tsa_negative.cpp)" >&2
    fail=1
  else
    echo "    probe $n rejected (good)"
  fi
  n=$((n + 1))
done

[ "$fail" = 0 ] || exit 1
echo "==> thread-safety gate passed ($probes probes rejected)"
