#!/usr/bin/env bash
# The ASan+UBSan leg: rebuilds the kernel-facing suites, the backend
# conformance suite (backend_contract), the adaptive estimation,
# dispatcher, campaign-engine (tree, checkpoint, campaign), binary-reader
# (result_io, dist), live-partial prefix merge (merge_prefix) and util
# (buffered CSV writer) suites in build-asan/ and runs them, so the
# vectorized pointer arithmetic, the density backend's prepare/extend/
# run_suffix/batch schedule walks (on every backend and kernel set), the
# estimator's cell bookkeeping, the journal's recovery/truncation paths,
# the snapshot tree sweep and its dynamically claimed chains, every reader
# fed a corrupt file, and the buffered CSV writer's failure paths run with
# checking on. test_kernels runs once per kernel set: scalar always, avx2
# and avx512 when the CPU lists avx2 and avx512f.
#
# The one list both callers share: `CHECK_SANITIZE=1 scripts/check.sh` and
# the sanitize job of .github/workflows/ci.yml. Extra arguments go to the
# configure step (CI passes its ccache compiler launchers).
#
#   scripts/sanitize.sh [CMAKE_ARGS...]
set -euo pipefail
cd "$(dirname "$0")/.."

suites=(test_kernels test_sim test_backend_contract test_adaptive
  test_dispatcher test_tree test_checkpoint test_result_io test_dist
  test_campaign test_util test_merge_prefix)

cmake -B build-asan -S . -DQUFI_SANITIZE=ON -DQUFI_BUILD_BENCHES=OFF \
  -DQUFI_BUILD_EXAMPLES=OFF "$@"
cmake --build build-asan -j --target "${suites[@]}"

# run LABEL CMD... — quiet on success; on failure prints the suite's output
# (gtest failures and sanitizer reports) and stops.
run() {
  local label="$1" out
  shift
  if ! out="$("$@" 2>&1)"; then
    echo "$out" >&2
    echo "sanitizer pass FAILED: $label" >&2
    exit 1
  fi
}

ksets="scalar"
if grep -qw avx2 /proc/cpuinfo 2> /dev/null; then ksets="$ksets avx2"; fi
if grep -qw avx512f /proc/cpuinfo 2> /dev/null; then ksets="$ksets avx512"; fi
for kset in $ksets; do
  run "test_kernels ($kset)" env QUFI_KERNELS="$kset" ./build-asan/test_kernels
done
for t in "${suites[@]}"; do
  if [[ "$t" != test_kernels ]]; then run "$t" "./build-asan/$t"; fi
done
echo "sanitizer pass OK (${suites[*]} under ASan+UBSan; test_kernels under: $ksets)"
