#!/usr/bin/env bash
# The ThreadSanitizer leg: rebuilds the suites that drive the campaign
# engine's concurrency in build-tsan/ with -fsanitize=thread and runs them.
# Every campaign kind (single-fault, double-fault, adaptive, named-fault)
# walks its snapshot chains on the pool with a promise/future hand-off of
# each chain's first snapshot, streams records through the per-point
# emitter's atomic countdown, and the distribution layer and dispatcher run
# worker fleets on threads that share one lane pool (whose concurrent
# parallel_for callers test_util drives directly), so a data race anywhere
# on those paths fails this leg even when the records come out right.
#
# The flag goes through CMAKE_CXX_FLAGS / CMAKE_EXE_LINKER_FLAGS (no CMake
# option of its own). Extra arguments go to the configure step (CI passes
# its ccache compiler launchers).
#
#   scripts/tsan.sh [CMAKE_ARGS...]
set -euo pipefail
cd "$(dirname "$0")/.."

suites=(test_util test_tree test_campaign test_adaptive test_dist test_dispatcher)

cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DQUFI_BUILD_BENCHES=OFF -DQUFI_BUILD_EXAMPLES=OFF "$@"
cmake --build build-tsan -j "$(nproc)" --target "${suites[@]}"

# A report fails the suite's exit status instead of only printing.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

# Quiet on success; on failure prints the suite's output (gtest failures
# and ThreadSanitizer reports) and stops.
for t in "${suites[@]}"; do
  if ! out="$("./build-tsan/$t" 2>&1)"; then
    echo "$out" >&2
    echo "thread sanitizer pass FAILED: $t" >&2
    exit 1
  fi
done
echo "thread sanitizer pass OK (${suites[*]} under TSan)"
