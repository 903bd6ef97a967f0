#!/usr/bin/env bash
# Local/CI entry point mirroring the tier-1 verify command, plus the docs
# target: the documentation layer must exist and every bench executable the
# README lists must be present in the build tree.
#
# Opt-in legs:
#   CHECK_SANITIZE=1  rebuild the kernel-facing suites, the adaptive
#                     estimation, dispatcher, and campaign-engine (tree,
#                     checkpoint) suites under ASan+UBSan in build-asan/ and
#                     run them (the leg .github/workflows/ci.yml runs on
#                     every push).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# ---- docs target ------------------------------------------------------------
status=0
for doc in README.md docs/ARCHITECTURE.md docs/CAMPAIGNS.md docs/SHARDING.md docs/SNAPSHOT_FORMAT.md docs/RESULT_FORMAT.md docs/DISPATCHER.md; do
  if [[ ! -f "$doc" ]]; then
    echo "docs check FAILED: $doc is missing" >&2
    status=1
  fi
done

# Every fig*/tab*/ablation_*/ext*/perf_* executable named in the README's
# bench table must exist in the build tree. (while-read instead of mapfile
# for bash 3.2 compatibility; empty-array guards for set -u on bash < 4.4.)
bench_count=0
if [[ -f README.md ]]; then
  while IFS= read -r name; do
    bench_count=$((bench_count + 1))
    if [[ ! -x "build/$name" ]]; then
      echo "docs check FAILED: README.md lists $name but build/$name is missing" >&2
      status=1
    fi
  done < <(grep -oE '`(fig[0-9]|tab[0-9]|ext[0-9]|ablation_|perf_)[a-z0-9_]+`' README.md |
    tr -d '\`' | sort -u)
  if [[ $bench_count -eq 0 ]]; then
    echo "docs check FAILED: README.md lists no bench executables" >&2
    status=1
  fi
fi

# Every flag the README's "Performance modes" table advertises must exist
# in perf_campaign --help, so the docs can never drift from the bench.
flag_count=0
if [[ -x build/perf_campaign ]]; then
  perf_help="$(./build/perf_campaign --help)"
  while IFS= read -r flag; do
    flag_count=$((flag_count + 1))
    if ! grep -qF -- "$flag" <<< "$perf_help"; then
      echo "docs check FAILED: README performance mode $flag missing from perf_campaign --help" >&2
      status=1
    fi
  done < <(sed -n '/^## Performance modes/,/^## /p' README.md |
    grep -oE '`--[a-z-]+' | tr -d '\`' | sort -u)
  if [[ $flag_count -eq 0 ]]; then
    echo "docs check FAILED: README lists no performance-mode flags" >&2
    status=1
  fi
else
  echo "docs check FAILED: build/perf_campaign missing (needed for the flags check)" >&2
  status=1
fi

if [[ $status -ne 0 ]]; then
  exit $status
fi
echo "docs check OK (README.md, docs/{ARCHITECTURE,CAMPAIGNS,SHARDING,SNAPSHOT_FORMAT,RESULT_FORMAT,DISPATCHER}.md, $bench_count bench executables, $flag_count perf flags)"

# ---- sharding smoke ----------------------------------------------------------
# Drive the distribution layer end to end through its real CLIs — plan two
# shards, execute each as a separate worker process (one resuming serialized
# snapshots), merge — and require the merged CSV to be byte-identical to the
# single-process campaign (the docs/SHARDING.md equivalence contract).
smoke_dir=build/shard_smoke
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
./build/qufi_shard_plan --circuit bv --width 4 --theta-step 60 --phi-step 90 \
  --points 4 --shards 2 --out-dir "$smoke_dir" > /dev/null
./build/qufi_shard_worker --manifest "$smoke_dir/shard_000.manifest" \
  --out "$smoke_dir/part_000.csv" --snapshot-dir "$smoke_dir/snaps" > /dev/null
./build/qufi_shard_worker --manifest "$smoke_dir/shard_001.manifest" \
  --out "$smoke_dir/part_001.csv" > /dev/null
./build/qufi_shard_merge --out "$smoke_dir/merged.csv" \
  "$smoke_dir/part_001.csv" "$smoke_dir/part_000.csv" > /dev/null
./build/qufi_cli --circuit bv --width 4 --theta-step 60 --phi-step 90 \
  --points 4 --csv "$smoke_dir/single.csv" > /dev/null
if ! diff -q "$smoke_dir/merged.csv" "$smoke_dir/single.csv" > /dev/null; then
  echo "sharding smoke FAILED: merged shard CSV differs from single-process CSV" >&2
  diff "$smoke_dir/merged.csv" "$smoke_dir/single.csv" | head -5 >&2
  exit 1
fi
echo "sharding smoke OK (2-shard plan -> worker -> merge == single-process)"

# Same contract for the double-fault campaign through the tree engine and
# the tree-aware shard policy: the full primary x secondary grid, planned
# as two shards (one resuming serialized snapshots), must merge
# byte-identically to the single-process qufi_cli run.
./build/qufi_shard_plan --circuit bv --width 4 --double --theta-step 60 \
  --phi-step 90 --points 4 --shards 2 --policy tree \
  --out-dir "$smoke_dir/double" > /dev/null
./build/qufi_shard_worker --manifest "$smoke_dir/double/shard_000.manifest" \
  --out "$smoke_dir/double/part_000.csv" \
  --snapshot-dir "$smoke_dir/double/snaps" > /dev/null
./build/qufi_shard_worker --manifest "$smoke_dir/double/shard_001.manifest" \
  --out "$smoke_dir/double/part_001.csv" > /dev/null
./build/qufi_shard_merge --out "$smoke_dir/double/merged.csv" \
  "$smoke_dir/double/part_001.csv" "$smoke_dir/double/part_000.csv" > /dev/null
./build/qufi_cli --circuit bv --width 4 --double --theta-step 60 \
  --phi-step 90 --points 4 --csv "$smoke_dir/double/single.csv" > /dev/null
if ! diff -q "$smoke_dir/double/merged.csv" "$smoke_dir/double/single.csv" > /dev/null; then
  echo "double-fault smoke FAILED: merged shard CSV differs from single-process CSV" >&2
  diff "$smoke_dir/double/merged.csv" "$smoke_dir/double/single.csv" | head -5 >&2
  exit 1
fi
echo "double-fault smoke OK (tree-policy 2-shard merge == single-process)"

# Idle-noise campaigns run through the same plan -> worker -> merge path
# with moment-aware snapshots (one worker resuming serialized v3 snapshot
# files): the merged CSV must still be byte-identical to the single-process
# idle-noise run — the re-admission contract of docs/CAMPAIGNS.md.
./build/qufi_shard_plan --circuit bv --width 4 --idle-noise --theta-step 60 \
  --phi-step 90 --points 4 --shards 2 --out-dir "$smoke_dir/idle" > /dev/null
./build/qufi_shard_worker --manifest "$smoke_dir/idle/shard_000.manifest" \
  --out "$smoke_dir/idle/part_000.csv" \
  --snapshot-dir "$smoke_dir/idle/snaps" > /dev/null
./build/qufi_shard_worker --manifest "$smoke_dir/idle/shard_001.manifest" \
  --out "$smoke_dir/idle/part_001.csv" > /dev/null
./build/qufi_shard_merge --out "$smoke_dir/idle/merged.csv" \
  "$smoke_dir/idle/part_001.csv" "$smoke_dir/idle/part_000.csv" > /dev/null
./build/qufi_cli --circuit bv --width 4 --idle-noise --theta-step 60 \
  --phi-step 90 --points 4 --csv "$smoke_dir/idle/single.csv" > /dev/null
if ! diff -q "$smoke_dir/idle/merged.csv" "$smoke_dir/idle/single.csv" > /dev/null; then
  echo "idle-noise smoke FAILED: merged shard CSV differs from single-process CSV" >&2
  diff "$smoke_dir/idle/merged.csv" "$smoke_dir/idle/single.csv" | head -5 >&2
  exit 1
fi
echo "idle-noise smoke OK (moment-aware 2-shard merge == single-process)"

# Adaptive-estimation campaigns ride the identical plan -> worker -> merge
# path: the policy travels in the manifest, every worker runs the
# deterministic estimator over its points, and the merged CSV — including
# the derived configs_evaluated / ci_halfwidth / est_qvf columns, which
# exporters recompute by replay — must be byte-identical to the
# single-process `qufi_cli --adaptive` run (docs/CAMPAIGNS.md "Adaptive
# estimation" determinism contract).
./build/qufi_shard_plan --circuit bv --width 4 --adaptive --points 4 \
  --shards 2 --out-dir "$smoke_dir/adaptive" > /dev/null
./build/qufi_shard_worker --manifest "$smoke_dir/adaptive/shard_000.manifest" \
  --out "$smoke_dir/adaptive/part_000.csv" \
  --snapshot-dir "$smoke_dir/adaptive/snaps" > /dev/null
./build/qufi_shard_worker --manifest "$smoke_dir/adaptive/shard_001.manifest" \
  --out "$smoke_dir/adaptive/part_001.csv" > /dev/null
./build/qufi_shard_merge --out "$smoke_dir/adaptive/merged.csv" \
  "$smoke_dir/adaptive/part_001.csv" "$smoke_dir/adaptive/part_000.csv" > /dev/null
./build/qufi_cli --circuit bv --width 4 --adaptive --points 4 \
  --csv "$smoke_dir/adaptive/single.csv" > /dev/null
if ! diff -q "$smoke_dir/adaptive/merged.csv" "$smoke_dir/adaptive/single.csv" > /dev/null; then
  echo "adaptive smoke FAILED: merged shard CSV differs from single-process --adaptive CSV" >&2
  diff "$smoke_dir/adaptive/merged.csv" "$smoke_dir/adaptive/single.csv" | head -5 >&2
  exit 1
fi
echo "adaptive smoke OK (estimation-policy 2-shard merge == single-process)"

# Columnar result-path smoke: the same three campaigns (single, double,
# idle-noise) through the binary QUFIPART pipeline — workers streaming
# columnar partials, a streaming k-way merge to a merged container, and a
# CSV export — must all be byte-identical to the single-process CSV each
# text smoke above already produced (the docs/RESULT_FORMAT.md projection
# contract). The direct merge-to-CSV path is checked too.
for variant in single double idle; do
  case "$variant" in
    single) vdir="$smoke_dir";        vlabel="single-fault" ;;
    double) vdir="$smoke_dir/double"; vlabel="double-fault" ;;
    idle)   vdir="$smoke_dir/idle";   vlabel="idle-noise" ;;
  esac
  ./build/qufi_shard_worker --manifest "$vdir/shard_000.manifest" \
    --format columnar --out "$vdir/part_000.qp" \
    --snapshot-dir "$vdir/snaps" > /dev/null
  ./build/qufi_shard_worker --manifest "$vdir/shard_001.manifest" \
    --format columnar --out "$vdir/part_001.qp" > /dev/null
  ./build/qufi_shard_merge --format columnar --out "$vdir/merged.qp" \
    "$vdir/part_001.qp" "$vdir/part_000.qp" > /dev/null
  ./build/qufi_export_csv --out "$vdir/exported.csv" "$vdir/merged.qp" \
    > /dev/null
  if ! diff -q "$vdir/exported.csv" "$vdir/single.csv" > /dev/null; then
    echo "columnar smoke FAILED ($vlabel): merge+export CSV differs from single-process CSV" >&2
    diff "$vdir/exported.csv" "$vdir/single.csv" | head -5 >&2
    exit 1
  fi
  ./build/qufi_shard_merge --format csv --out "$vdir/streamed.csv" \
    "$vdir/part_001.qp" "$vdir/part_000.qp" > /dev/null
  if ! diff -q "$vdir/streamed.csv" "$vdir/single.csv" > /dev/null; then
    echo "columnar smoke FAILED ($vlabel): streaming merge-to-CSV differs from single-process CSV" >&2
    diff "$vdir/streamed.csv" "$vdir/single.csv" | head -5 >&2
    exit 1
  fi
done
echo "columnar smoke OK (QUFIPART worker -> streaming merge -> export == single-process, 3 campaigns)"

# The sharded bench line must keep reporting the result-path metrics the
# README documents (merge_ms, partial_bytes), so perf trajectories can
# track the streaming merge. One --json --shards 2 pass over the paper
# circuits exercises the real plan -> worker -> merge path.
perf_json="$(./build/perf_campaign --json --shards 2)"
for key in merge_ms partial_bytes peak_rss_kb; do
  if ! grep -q "\"$key\":" <<< "$perf_json"; then
    echo "perf json FAILED: perf_campaign --json --shards 2 output lacks \"$key\"" >&2
    exit 1
  fi
done
echo "perf json OK (merge_ms / partial_bytes / peak_rss_kb reported)"

# Dispatcher smoke: two concurrent campaigns through qufid's process fleet
# with a chaos kill — the first spawned worker is SIGKILLed at spawn, while
# it provably holds its lease, so the kill can never race shard completion
# and a single drain always observes it (no retry loop needed). The lease
# expires, the shard is requeued and re-run — and both final CSVs must
# STILL be byte-identical to the single-process qufi_cli runs (the
# docs/DISPATCHER.md contract).
disp_dir=build/dispatcher_smoke
rm -rf "$disp_dir"
mkdir -p "$disp_dir/out"
./build/qufi_submit --spool "$disp_dir/spool" --name bv4 --circuit bv \
  --width 4 --theta-step 60 --phi-step 90 --csv "$disp_dir/out/bv4.csv" \
  > /dev/null
./build/qufi_submit --spool "$disp_dir/spool" --name dj4 --circuit dj \
  --width 4 --theta-step 60 --phi-step 90 --priority 5 \
  --csv "$disp_dir/out/dj4.csv" > /dev/null
./build/qufid --spool "$disp_dir/spool" --work-dir "$disp_dir/work" \
  --fleet process --workers 2 --chaos-kill 1 --lease-timeout 2000 \
  --drain > "$disp_dir/qufid.log"
if ! grep -q '"event":"chaos_kill"' "$disp_dir/qufid.log"; then
  echo "dispatcher smoke FAILED: qufid --chaos-kill never killed a worker" >&2
  exit 1
fi
# The killed worker held a lease, so the journal must record its requeue.
if ! grep -q ' requeue ' "$disp_dir/work/qufid.journal"; then
  echo "dispatcher smoke FAILED: no requeue journaled after the chaos kill" >&2
  exit 1
fi
./build/qufi_cli --circuit bv --width 4 --theta-step 60 --phi-step 90 \
  --csv "$disp_dir/ref_bv4.csv" > /dev/null
./build/qufi_cli --circuit dj --width 4 --theta-step 60 --phi-step 90 \
  --csv "$disp_dir/ref_dj4.csv" > /dev/null
for name in bv4 dj4; do
  if ! diff -q "$disp_dir/out/$name.csv" "$disp_dir/ref_$name.csv" > /dev/null; then
    echo "dispatcher smoke FAILED: $name CSV differs from single-process CSV after worker kill" >&2
    diff "$disp_dir/out/$name.csv" "$disp_dir/ref_$name.csv" | head -5 >&2
    exit 1
  fi
done
echo "dispatcher smoke OK (2 campaigns, chaos-killed worker, CSVs == single-process)"

# Crash-durability smoke: SIGKILL the daemon ITSELF (and its workers)
# mid-campaign, then restart qufid over the same spool + work dir. The
# write-ahead journal (on by default) must drive recovery: the restarted
# daemon replays it, adopts/requeues the in-flight attempts, finishes the
# drain with byte-identical CSVs, and never re-runs a shard the journal
# already recorded as complete.
crash_dir=build/dispatcher_crash_smoke
rm -rf "$crash_dir"
mkdir -p "$crash_dir/out"
./build/qufi_submit --spool "$crash_dir/spool" --name bv4 --circuit bv \
  --width 4 --theta-step 60 --phi-step 90 --csv "$crash_dir/out/bv4.csv" \
  > /dev/null
./build/qufi_submit --spool "$crash_dir/spool" --name dj4 --circuit dj \
  --width 4 --theta-step 60 --phi-step 90 --priority 5 \
  --csv "$crash_dir/out/dj4.csv" > /dev/null
./build/qufid --spool "$crash_dir/spool" --work-dir "$crash_dir/work" \
  --fleet process --workers 1 --lease-timeout 2000 --drain \
  > "$crash_dir/qufid1.log" &
qufid_pid=$!
# Kill once the journal has acknowledged at least one completed shard, so
# the no-re-execution check below is about a genuinely Done shard.
for i in $(seq 1 200); do
  if [[ -f "$crash_dir/work/qufid.journal" ]] &&
     grep -q ' complete ' "$crash_dir/work/qufid.journal" 2>/dev/null; then
    break
  fi
  if ! kill -0 "$qufid_pid" 2>/dev/null; then break; fi
  sleep 0.1
done
worker_pids="$(pgrep -P "$qufid_pid" 2>/dev/null || true)"
kill -9 "$qufid_pid" $worker_pids 2>/dev/null || true
wait "$qufid_pid" 2>/dev/null || true
./build/qufid --spool "$crash_dir/spool" --work-dir "$crash_dir/work" \
  --fleet process --workers 2 --lease-timeout 2000 --drain \
  > "$crash_dir/qufid2.log"
if ! grep -q '"event":"recovered"' "$crash_dir/qufid2.log"; then
  echo "restart smoke FAILED: restarted qufid did not report journal recovery" >&2
  cat "$crash_dir/qufid2.log" >&2
  exit 1
fi
for name in bv4 dj4; do
  if ! diff -q "$crash_dir/out/$name.csv" "$disp_dir/ref_$name.csv" > /dev/null; then
    echo "restart smoke FAILED: $name CSV differs from single-process CSV after daemon SIGKILL + restart" >&2
    diff "$crash_dir/out/$name.csv" "$disp_dir/ref_$name.csv" | head -5 >&2
    exit 1
  fi
done
# No completed shard may ever be leased again: once the journal records
# `complete` for a (campaign, shard), no later record may `acquire` it.
if ! awk '
  $2 == "complete" { done[$5 " " $6] = $1 + 0 }
  $2 == "acquire"  { key = $5 " " $6
                     if (key in done && $1 + 0 > done[key]) {
                       print "shard re-acquired after complete: " key; bad = 1 } }
  END { exit bad }' "$crash_dir/work/qufid.journal"; then
  echo "restart smoke FAILED: a completed shard was re-executed after recovery" >&2
  exit 1
fi
echo "restart smoke OK (daemon SIGKILLed mid-campaign, journal recovery, no completed shard re-run)"

# Golden-CSV regression through the real CLI: the committed bv-2q fixture
# pins the column schema and row ordering documented in the README, so
# qufi_cli --csv output must stay byte-identical to it.
./build/qufi_cli --circuit bv --width 2 --theta-step 90 --phi-step 180 \
  --csv "$smoke_dir/golden.csv" > /dev/null
if ! diff -q "$smoke_dir/golden.csv" tests/golden/bv2q_single.csv > /dev/null; then
  echo "golden CSV FAILED: qufi_cli output differs from tests/golden/bv2q_single.csv" >&2
  diff "$smoke_dir/golden.csv" tests/golden/bv2q_single.csv | head -5 >&2
  exit 1
fi
echo "golden CSV OK (qufi_cli --csv == tests/golden/bv2q_single.csv)"

# ---- kernel smoke ------------------------------------------------------------
# Every kernel set available on this host must produce byte-identical
# fixed-seed statevector + density digests (perf_simulator --digest prints
# no set name, so the outputs diff byte-exactly), and the golden CSV must
# survive a forced-scalar run — the kernel-dispatch bit-identity contract
# of docs/ARCHITECTURE.md. The --json speedup lines are informational here;
# BENCH tracking compares them across commits.
if [[ -x build/perf_simulator ]]; then
  kernel_sets="$(./build/perf_simulator --list-kernels)"
  QUFI_KERNELS=scalar ./build/perf_simulator --digest > build/kernel_digest_scalar.txt
  for kset in $kernel_sets; do
    QUFI_KERNELS="$kset" ./build/perf_simulator --digest > "build/kernel_digest_$kset.txt"
    if ! diff -q "build/kernel_digest_$kset.txt" build/kernel_digest_scalar.txt > /dev/null; then
      echo "kernel smoke FAILED: $kset digests differ from scalar" >&2
      diff "build/kernel_digest_$kset.txt" build/kernel_digest_scalar.txt >&2
      exit 1
    fi
  done
  QUFI_KERNELS=scalar ./build/qufi_cli --circuit bv --width 2 --theta-step 90 \
    --phi-step 180 --csv "$smoke_dir/golden_scalar.csv" > /dev/null
  if ! diff -q "$smoke_dir/golden_scalar.csv" tests/golden/bv2q_single.csv > /dev/null; then
    echo "kernel smoke FAILED: scalar-kernel golden CSV differs from fixture" >&2
    exit 1
  fi
  # The golden CSV must also survive the best vectorized set this host has
  # (--list-kernels prints best-first), not just the forced-scalar run.
  best_kset="$(echo "$kernel_sets" | head -n 1)"
  if [[ "$best_kset" != "scalar" ]]; then
    QUFI_KERNELS="$best_kset" ./build/qufi_cli --circuit bv --width 2 \
      --theta-step 90 --phi-step 180 \
      --csv "$smoke_dir/golden_$best_kset.csv" > /dev/null
    if ! diff -q "$smoke_dir/golden_$best_kset.csv" tests/golden/bv2q_single.csv > /dev/null; then
      echo "kernel smoke FAILED: $best_kset-kernel golden CSV differs from fixture" >&2
      exit 1
    fi
  fi
  echo "kernel smoke OK (byte-identical digests across: $(echo $kernel_sets | tr '\n' ' '))"
else
  echo "kernel smoke SKIPPED: build/perf_simulator missing (google-benchmark not found)"
fi

# ---- opt-in sanitizer pass ---------------------------------------------------
# CHECK_SANITIZE=1 rebuilds the kernel-facing tests, the adaptive
# estimation suite, the dispatcher/journal suite, and the campaign engine's
# tree and checkpoint suites under ASan+UBSan in a separate build tree and
# runs them, so the vectorized pointer arithmetic, the estimator's cell
# bookkeeping, the journal's recovery/truncation paths, and the snapshot
# tree sweep are exercised with checking on before merge.
if [[ "${CHECK_SANITIZE:-0}" == "1" ]]; then
  cmake -B build-asan -S . -DQUFI_SANITIZE=ON -DQUFI_BUILD_BENCHES=OFF \
    -DQUFI_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j --target test_kernels test_sim test_adaptive \
    test_dispatcher test_tree test_checkpoint
  for t in test_kernels test_sim test_adaptive test_dispatcher test_tree \
    test_checkpoint; do
    ./build-asan/$t > /dev/null
  done
  # The vectorized sets must survive sanitized runs too, not just the default.
  for kset in $(./build/perf_simulator --list-kernels); do
    QUFI_KERNELS="$kset" ./build-asan/test_kernels > /dev/null
  done
  echo "sanitizer pass OK (test_kernels + test_sim + test_adaptive + test_dispatcher + test_tree + test_checkpoint under ASan+UBSan)"
fi
