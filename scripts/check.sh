#!/usr/bin/env bash
# Local/CI entry point mirroring the tier-1 verify command, plus the docs
# target: the documentation layer must exist and every bench executable the
# README lists must be present in the build tree.
#
# Opt-in legs:
#   CHECK_SANITIZE=1  run scripts/sanitize.sh: the ASan+UBSan suites in
#                     build-asan/ (the leg .github/workflows/ci.yml runs on
#                     every push; the suite list lives only there).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# ---- docs target ------------------------------------------------------------
status=0
for doc in README.md docs/ARCHITECTURE.md docs/CAMPAIGNS.md docs/SHARDING.md docs/RESULT_FORMAT.md docs/DISPATCHER.md; do
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
echo "docs check OK (README.md, docs/{ARCHITECTURE,CAMPAIGNS,SHARDING,RESULT_FORMAT,DISPATCHER}.md, $bench_count bench executables, $flag_count perf flags)"

# ---- sharding smoke ----------------------------------------------------------
# Drive the distribution layer end to end through its real CLIs, once per
# campaign kind: plan two shards, execute each as a separate worker process
# streaming a QUFIPART partial (one with 1 thread, one with 4, so the
# partials must not depend on thread count), then merge twice — straight to
# CSV, and to a merged QUFIPART file that a one-input
# `qufi_shard_merge --format csv` exports. Both CSVs must be byte-identical to the
# single-process `qufi_cli --csv` run (the docs/SHARDING.md equivalence
# contract and the docs/RESULT_FORMAT.md projection contract). The kinds:
#  - single-fault: the paper's primary sweep;
#  - double-fault: the full primary x secondary grid through the tree engine;
#  - idle-noise: moment-aware snapshots (the re-admission contract of
#    docs/CAMPAIGNS.md);
#  - adaptive: the policy travels in the manifest and every worker runs the
#    deterministic estimator, so the derived configs_evaluated /
#    ci_halfwidth / est_qvf columns, which exporters recompute by replay,
#    must match too (docs/CAMPAIGNS.md "Adaptive estimation");
#  - device: a non-default device and optimization level, which the plan
#    and the single-process run take through the same campaign flags.
smoke_dir=build/shard_smoke
rm -rf "$smoke_dir"
mkdir -p "$smoke_dir"
# shard_smoke LABEL DIR CAMPAIGN_FLAGS — the flags are word-split on
# purpose (none contains spaces).
shard_smoke() {
  local label="$1" dir="$2" flags="$3"
  ./build/qufi_shard_plan $flags --shards 2 --out-dir "$dir" > /dev/null
  ./build/qufi_shard_worker --manifest "$dir/shard_000.manifest" \
    --out "$dir/part_000.qp" -j 1 > /dev/null
  ./build/qufi_shard_worker --manifest "$dir/shard_001.manifest" \
    --out "$dir/part_001.qp" -j 4 > /dev/null
  ./build/qufi_shard_merge --format csv --out "$dir/merged.csv" \
    "$dir/part_001.qp" "$dir/part_000.qp" > /dev/null
  ./build/qufi_shard_merge --format columnar --out "$dir/merged.qp" \
    "$dir/part_001.qp" "$dir/part_000.qp" > /dev/null
  ./build/qufi_shard_merge --format csv --out "$dir/exported.csv" \
    "$dir/merged.qp" > /dev/null
  ./build/qufi_cli $flags --csv "$dir/single.csv" > /dev/null
  for out in merged exported; do
    if ! diff -q "$dir/$out.csv" "$dir/single.csv" > /dev/null; then
      echo "$label smoke FAILED: $out CSV differs from single-process CSV" >&2
      diff "$dir/$out.csv" "$dir/single.csv" | head -5 >&2
      exit 1
    fi
  done
  echo "$label smoke OK (2-shard plan -> QUFIPART workers -> merge to CSV, and merge -> export, == single-process)"
}
shard_smoke single-fault "$smoke_dir/single" \
  "--circuit bv --width 4 --theta-step 60 --phi-step 90 --points 4"
shard_smoke double-fault "$smoke_dir/double" \
  "--circuit bv --width 4 --double --theta-step 60 --phi-step 90 --points 4"
shard_smoke idle-noise "$smoke_dir/idle" \
  "--circuit bv --width 4 --idle-noise --theta-step 60 --phi-step 90 --points 4"
shard_smoke adaptive "$smoke_dir/adaptive" \
  "--circuit bv --width 4 --adaptive --points 4"
shard_smoke device "$smoke_dir/device" \
  "--circuit bv --width 4 --device jakarta --opt 2 --theta-step 60 --phi-step 90 --points 4"

# A partial that is not a sealed QUFIPART file — a worker killed mid-write
# (torn), or a text file — must stop the merge with a diagnosis (exit 1) and
# leave no CSV behind, never merge into a silently wrong one.
single_dir="$smoke_dir/single"
part_size=$(wc -c < "$single_dir/part_001.qp")
head -c $((part_size - 5)) "$single_dir/part_001.qp" > "$single_dir/torn.qp"
for bad in "$single_dir/torn.qp" "$single_dir/single.csv"; do
  rc=0
  ./build/qufi_shard_merge --out "$single_dir/rejected.csv" \
    "$single_dir/part_000.qp" "$bad" > /dev/null 2>&1 || rc=$?
  if [[ $rc -ne 1 || -e "$single_dir/rejected.csv" ]]; then
    echo "partial rejection FAILED: merging $bad exited $rc (want 1, no CSV)" >&2
    exit 1
  fi
done
echo "partial rejection OK (torn and plain-text partials refused by the merge)"

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
# Hostile spool input: a submission asking for -1 shards (which a stream
# extraction would wrap to 4294967295), one named `..` (whose shard
# manifests and partials would land in the parent of --work-dir) and one
# asking for the removed `tree` shard policy sort first in the intake
# order. Each must be renamed .rejected with a named error while qufid
# keeps serving the two real campaigns.
sed 's/^shards .*/shards -1/' "$disp_dir/spool/bv4.submission" \
  > "$disp_dir/spool/aaa_hostile.submission"
sed 's/^name .*/name ../' "$disp_dir/spool/bv4.submission" \
  > "$disp_dir/spool/aab_dotdot.submission"
sed 's/^policy .*/policy tree/' "$disp_dir/spool/bv4.submission" \
  > "$disp_dir/spool/aac_tree.submission"
./build/qufid --spool "$disp_dir/spool" --work-dir "$disp_dir/work" \
  --fleet process --workers 2 --chaos-kill 1 --lease-timeout 2000 \
  --drain > "$disp_dir/qufid.log" 2> "$disp_dir/qufid.err"
if [[ ! -e "$disp_dir/spool/aaa_hostile.submission.rejected" ]] ||
   ! grep -q 'bad shards line' "$disp_dir/qufid.err"; then
  echo "dispatcher smoke FAILED: the shards -1 submission was not rejected by name" >&2
  cat "$disp_dir/qufid.err" >&2
  exit 1
fi
if [[ ! -e "$disp_dir/spool/aab_dotdot.submission.rejected" ]] ||
   ! grep -q 'must not be a relative directory' "$disp_dir/qufid.err"; then
  echo "dispatcher smoke FAILED: the campaign named .. was not rejected by name" >&2
  cat "$disp_dir/qufid.err" >&2
  exit 1
fi
if [[ ! -e "$disp_dir/spool/aac_tree.submission.rejected" ]] ||
   ! grep -q 'unknown shard policy: tree' "$disp_dir/qufid.err"; then
  echo "dispatcher smoke FAILED: the policy tree submission was not rejected by name" >&2
  cat "$disp_dir/qufid.err" >&2
  exit 1
fi
# Every event line qufid prints must be one well-formed JSON object.
if ! python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin]' \
    < "$disp_dir/qufid.log"; then
  echo "dispatcher smoke FAILED: qufid.log holds a line that is not JSON" >&2
  exit 1
fi
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
# Hostile flags: a non-number, a number with trailing bytes or a
# non-finite value must exit 1 with a named error (not abort on an
# uncaught exception or parse a prefix), and --workers 0 must be refused
# up front instead of draining forever with no worker. A 1e-300 grid step
# divides any range exactly, so its step count (1.8e302) must be refused
# by name rather than wrapped into an int, by qufi_submit before it writes
# a submission too. qufi_submit runs the intake's planning, so zero shards,
# an unknown circuit, an out-of-range width and idle noise on the
# trajectory kind are refused before a submission exists, as are a
# campaign named `..` and an adaptive campaign (the submission format
# cannot carry its policy), and qufi_shard_plan refuses an adaptive budget
# every worker would refuse before it writes a manifest. (Word-split on
# purpose.)
q="./build/qufid --spool $disp_dir/flag_spool --work-dir $disp_dir/flag_work"
for cmd in "$q --workers abc" "$q --workers 0 --fleet process --drain" \
  "$q --threads abc" "$q --lease-timeout abc" "$q --max-retries abc" \
  "$q --poll abc" "$q --progress-every abc" "$q --chaos-kill abc" \
  "./build/qufi_shard_worker -j abc --manifest $disp_dir/none --out $disp_dir/none.qp" \
  "./build/qufi_cli --width abc" "./build/qufi_cli --opt 3x" \
  "./build/qufi_cli --theta-step x" "./build/qufi_cli --phi-max inf" \
  "./build/qufi_cli --adaptive-budget 0.5x" "./build/qufi_cli --adaptive-ci nan" \
  "./build/qufi_submit --width abc" "./build/qufi_submit --priority 1.5" \
  "./build/qufi_submit --phi-step 1e999" \
  "./build/qufi_shard_plan --phi-max 1e999" "./build/qufi_shard_plan --opt -1" \
  "./build/qufi_shard_plan --adaptive-ci x" \
  "./build/qufi_cli --theta-step 1e-300" "./build/qufi_cli --phi-step 1e-300" \
  "./build/qufi_shard_plan --theta-step 1e-300 --out-dir $disp_dir/flag_plan" \
  "./build/qufi_shard_plan --adaptive-budget -0.5 --out-dir $disp_dir/flag_adaptive" \
  "./build/qufi_shard_plan --adaptive-min 0 --out-dir $disp_dir/flag_adaptive" \
  "./build/qufi_submit --spool $disp_dir/flag_submit --name x --csv x.csv --theta-step 1e-300" \
  "./build/qufi_submit --spool $disp_dir/flag_submit --name x --csv x.csv --shards 0" \
  "./build/qufi_submit --spool $disp_dir/flag_submit --name x --csv x.csv --circuit nosuch" \
  "./build/qufi_submit --spool $disp_dir/flag_submit --name x --csv x.csv --width 200" \
  "./build/qufi_submit --spool $disp_dir/flag_submit --name x --csv x.csv --backend-kind trajectory --idle-noise" \
  "./build/qufi_submit --spool $disp_dir/flag_submit --name .. --csv x.csv" \
  "./build/qufi_submit --spool $disp_dir/flag_submit --name x --csv x.csv --adaptive"; do
  rc=0
  err="$(timeout 10 $cmd 2>&1 > /dev/null)" || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q '^error: ' <<< "$err"; then
    echo "dispatcher smoke FAILED: '$cmd' exited $rc (want 1 with a named error): $err" >&2
    exit 1
  fi
done
# A refused submission leaves nothing in the spool for qufid to pick up,
# and a refused plan leaves no manifest for a worker to pick up.
if [[ -n "$(ls -A "$disp_dir/flag_submit" 2> /dev/null)" ]]; then
  echo "dispatcher smoke FAILED: qufi_submit left a file it should have refused:" \
    "$(ls -A "$disp_dir/flag_submit")" >&2
  exit 1
fi
if compgen -G "$disp_dir/flag_adaptive/*.manifest" > /dev/null; then
  echo "dispatcher smoke FAILED: qufi_shard_plan wrote manifests for an adaptive policy workers refuse" >&2
  exit 1
fi
echo "dispatcher smoke OK (2 campaigns, chaos-killed worker, CSVs == single-process, JSON event log, shards -1, .. and policy tree submissions, bad numeric flags, overflowing grid steps, unplannable, .. and adaptive submissions and adaptive plans rejected)"

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

# Thread-fleet smoke: a campaign whose name holds a space and a quote, and
# whose CSV path holds spaces, runs through qufid's thread fleet with the
# default 30 s lease (so a 10 s heartbeat interval). Both values must reach
# qufid whole: the final CSV lands at the full path, byte-identical to the
# single-process run, and every JSON line qufi_submit and qufid print
# parses. qufid must also exit within 1 s of writing that CSV: stop() wakes
# the fleet's supervisor and idle workers instead of waiting out a sleep.
thread_dir=build/dispatcher_thread_smoke
rm -rf "$thread_dir"
mkdir -p "$thread_dir/out dir"
thread_csv="$thread_dir/out dir/bv 4.csv"
./build/qufi_submit --spool "$thread_dir/spool" --name 'bv "4"' --circuit bv \
  --width 4 --theta-step 60 --phi-step 90 --csv "$thread_csv" \
  > "$thread_dir/qufid.log"
./build/qufid --spool "$thread_dir/spool" --work-dir "$thread_dir/work" \
  --fleet thread --drain >> "$thread_dir/qufid.log"
exit_at="$(python3 -c 'import time; print(time.time())')"
if ! python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin]' \
    < "$thread_dir/qufid.log"; then
  echo "thread fleet smoke FAILED: a qufi_submit or qufid line is not JSON" >&2
  exit 1
fi
if ! diff -q "$thread_csv" "$disp_dir/ref_bv4.csv" > /dev/null; then
  echo "thread fleet smoke FAILED: no CSV at '$thread_csv' equal to the single-process CSV" >&2
  exit 1
fi
if ! python3 -c 'import os,sys; sys.exit(float(sys.argv[2]) - os.stat(sys.argv[1]).st_mtime >= 1.0)' \
    "$thread_csv" "$exit_at"; then
  echo "thread fleet smoke FAILED: qufid exited 1 s or more after the final CSV" >&2
  exit 1
fi
echo "thread fleet smoke OK (name and CSV path with spaces, JSON-escaped name, qufid exits within 1 s of the final CSV)"

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
  # bv2q_single.csv has 9 configs per point and takes the replay path, so
  # the response path is pinned per set too: the exhaustive single-fault
  # fixtures (1q basis), the double-fault fixture (2q basis, 784
  # configs per pair) and the qft fixture (1q basis, qubits folded into
  # lanes as they finish) must come out byte-identical under every set.
  for kset in $kernel_sets; do
    if ! QUFI_KERNELS="$kset" ./build/test_adaptive \
        --gtest_filter=AdaptiveGold.ExhaustiveFixturesAreFresh > /dev/null; then
      echo "kernel smoke FAILED: $kset-kernel exhaustive fixtures drifted" >&2
      exit 1
    fi
    QUFI_KERNELS="$kset" ./build/qufi_cli --circuit bv --width 2 \
      --theta-step 30 --phi-step 30 --phi-max 180 --double --points 2 \
      --csv "$smoke_dir/double_$kset.csv" > /dev/null
    if ! diff -q "$smoke_dir/double_$kset.csv" tests/golden/bv2q_double_30deg.csv > /dev/null; then
      echo "kernel smoke FAILED: $kset-kernel double-fault CSV differs from tests/golden/bv2q_double_30deg.csv" >&2
      exit 1
    fi
    QUFI_KERNELS="$kset" ./build/qufi_cli --circuit qft --width 3 \
      --theta-step 30 --phi-step 60 --csv "$smoke_dir/qft3_$kset.csv" > /dev/null
    if ! diff -q "$smoke_dir/qft3_$kset.csv" tests/golden/qft3q_single_30x60deg.csv > /dev/null; then
      echo "kernel smoke FAILED: $kset-kernel folded qft CSV differs from tests/golden/qft3q_single_30x60deg.csv" >&2
      exit 1
    fi
  done
  echo "kernel smoke OK (byte-identical digests, exhaustive, double-fault and folded qft fixtures across: $(echo $kernel_sets | tr '\n' ' '))"
else
  echo "kernel smoke SKIPPED: build/perf_simulator missing (google-benchmark not found)"
fi

# ---- opt-in sanitizer pass ---------------------------------------------------
if [[ "${CHECK_SANITIZE:-0}" == "1" ]]; then
  scripts/sanitize.sh
fi
