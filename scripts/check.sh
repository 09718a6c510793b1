#!/bin/sh
# Tier-1 gate, runnable locally and in CI:
#   1. configure + build the default preset with -DQUICSAND_WERROR=ON
#      (warnings are errors, as in CI)
#   2. run the tier-1 ctest label (every registered gtest suite), then
#      the golden label (the exact fig02-fig13 and online-counter pins)
#   3. build the tsan preset and run the concurrency-sensitive suites
#      (the QUICSAND_TSAN_SUITES list in tests/CMakeLists.txt) under
#      ThreadSanitizer
#   4. build the asan and ubsan presets' fuzz drivers (the fuzz_drivers
#      target in tests/fuzz/CMakeLists.txt) and run a bounded smoke
#      through ctest (FUZZ_SMOKE_ITERATIONS per target, default 500) from
#      the committed corpus — replays every committed crasher, then fuzzes;
#      then build the pipeline suites under the asan preset (the
#      QUICSAND_ASAN_SUITES list in tests/CMakeLists.txt) and run them
#   5. run quicsand_lint over every first-party tree (also the `lint`
#      ctest label), writing the JSON report CI uploads as an artifact;
#      when clang is installed, run the thread-safety gate
#      (scripts/check_tsa.sh: -Werror=thread-safety build + negative
#      probes); when clang-tidy is installed, tidy the files changed
#      relative to origin/main (or all of src/ on main itself)
#
# Usage: scripts/check.sh [--no-tsan] [--no-fuzz] [--no-tidy]
set -eu

cd "$(dirname "$0")/.."

run_tsan=1
run_fuzz=1
run_tidy=1
for arg in "$@"; do
  case "$arg" in
    --no-tsan) run_tsan=0 ;;
    --no-fuzz) run_fuzz=0 ;;
    --no-tidy) run_tidy=0 ;;
    *) echo "usage: scripts/check.sh [--no-tsan] [--no-fuzz] [--no-tidy]" >&2
       exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 4)"

smoke_iters="${FUZZ_SMOKE_ITERATIONS:-500}"

echo "==> configure+build (default preset, -Werror)"
cmake --preset default -DQUICSAND_WERROR=ON
cmake --build --preset default -j "$jobs"

echo "==> ctest tier1"
ctest --preset tier1 -j "$jobs"

echo "==> ctest golden (fig02-fig13 and online-counter pins)"
ctest --preset golden -j "$jobs"

echo "==> live-endpoint smoke (monitor --listen)"
scripts/smoke_monitor.sh

echo "==> live-capture smoke (monitor --live + flood_lab --send)"
scripts/smoke_live.sh

if [ "$run_tsan" = 1 ]; then
  echo "==> configure+build (tsan preset)"
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs" --target tsan_suites
  echo "==> ctest tsan (the tsan_suites list in tests/CMakeLists.txt)"
  ctest --preset tsan -j "$jobs"
fi

if [ "$run_fuzz" = 1 ]; then
  for preset in asan ubsan; do
    echo "==> configure+build fuzz drivers ($preset preset)"
    cmake --preset "$preset" -DQUICSAND_FUZZ_ITERATIONS="$smoke_iters"
    cmake --build --preset "$preset" -j "$jobs" --target fuzz_drivers
    echo "==> fuzz smoke ($preset, $smoke_iters iterations per target)"
    ctest --preset "fuzz-$preset" -j "$jobs"
  done
  echo "==> pipeline suites under ASan (asan_suites in tests/CMakeLists.txt)"
  cmake --build --preset asan -j "$jobs" --target asan_suites
  ctest --preset asan-suites -j "$jobs"
fi

echo "==> quicsand_lint"
build/tools/quicsand_lint --report build/lint_findings.json \
  src tests bench examples tools

if command -v clang++ >/dev/null 2>&1; then
  echo "==> thread-safety gate (clang-tsa preset + negative probes)"
  scripts/check_tsa.sh
else
  echo "==> thread-safety gate skipped (clang++ not installed)"
fi

if [ "$run_tidy" = 1 ] && command -v clang-tidy >/dev/null 2>&1; then
  # Tidy only the .cpp files changed against origin/main (keeps the
  # stage fast on feature branches); fall back to all of src/ when
  # there's no diff base.
  if git rev-parse --verify origin/main >/dev/null 2>&1; then
    changed="$(git diff --name-only origin/main -- '*.cpp' |
               while read -r f; do [ -f "$f" ] && echo "$f"; done)"
  else
    changed="$(find src -name '*.cpp')"
  fi
  if [ -n "$changed" ]; then
    echo "==> clang-tidy ($(echo "$changed" | wc -l) files)"
    # shellcheck disable=SC2086
    clang-tidy -p build --quiet $changed
  else
    echo "==> clang-tidy (no changed files)"
  fi
else
  echo "==> clang-tidy skipped (not installed or --no-tidy)"
fi

echo "==> all checks passed"
