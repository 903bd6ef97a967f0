#!/usr/bin/env python3
"""Campaign benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary from the checkout's sources, runs one workload
for S seconds, checks every CSV it wrote, and prints a host fingerprint, a
summary and, as the last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0x51754649
RUN_TIMEOUT_S = 170

WORKLOADS = {
    "single_sweep": ["bv6_single", "dj6_single", "qft6_single"],
    "double_sweep": ["bv5_double"],
    "idle_replay": ["qft5_idle"],
    "fleet_journal": ["bv6_single", "dj6_single", "qft6_single"],
}

END_TO_END_UNITS = {
    "time_to_csv_s": "s",
    "injections_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "transpile.busy_ms": "ms",
    "backend.prepare.calls": "count",
    "backend.prepare.busy_ms": "ms",
    "backend.extend.calls": "count",
    "backend.extend.gates": "count",
    "backend.extend.busy_ms": "ms",
    "backend.batch_first.busy_ms": "ms",
    "backend.batch_first.configs": "count",
    "backend.batch_rest.busy_ms": "ms",
    "backend.batch_rest.us_per_config": "us",
    "backend.batch_below_threshold.calls": "count",
    "backend.faultfree_run_ms": "ms",
    "core.campaign.wall_ms": "ms",
    "core.engine_self_ms": "ms",
    "pool.lane_busy_share": "share",
    "core.write_csv.busy_ms": "ms",
    "core.csv_bytes": "bytes",
    "core.write_csv.mb_per_s": "MB/s",
    "sim.dm_superop1_ns_per_amp.w5": "ns",
    "sim.dm_superop1_ns_per_amp.w6": "ns",
    "sim.dm_superop2_ns_per_amp.w5": "ns",
    "sim.dm_superop2_ns_per_amp.w6": "ns",
    "dist.plan_ms": "ms",
    "dist.run_shard.p50_ms": "ms",
    "dist.run_shard.max_ms": "ms",
    "dist.partial_bytes": "bytes",
    "fleet.worker_busy_share": "share",
    "service.submit_ms": "ms",
    "service.acquire.p50_ms": "ms",
    "service.complete.p50_ms": "ms",
    "service.complete.max_ms": "ms",
    "service.idle_wait_ms": "ms",
    "service.requeues": "count",
    "service.journal_bytes": "bytes",
    "service.journal_records": "count",
    "trace.overhead_share": "share",
    "error_rate": "share",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds qufi_perfbench; returns its path and work dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no qufi source tree next to {HERE.name}/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", str(build_dir), "--target", "qufi_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "qufi_perfbench", build_dir / "work"


def run_binary(binary, work_dir, args):
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"qufi_perfbench exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check(raw, seed, reference):
    """Counts attempted and failed campaigns over every pass of the run.

    A campaign fails when it threw or ended Failed, or when its CSV has a
    QVF outside [0, 1], the wrong record count, a body digest other than the
    committed one, a whole-file digest other than the committed one (default
    seed only), or a digest that differs from the same CSV in another pass
    of this run (reruns, traced passes and the fleet cross-check must be
    byte-identical).
    """
    expected = WORKLOADS[raw["workload"]]
    first_digest = {}
    attempted = failed = 0
    problems = []
    for kind in ("passes", "traced", "cross_check"):
        for index, p in enumerate(raw[kind]):
            attempted += p["attempted"]
            bad = {error.split(":")[0] for error in p["errors"]}
            problems += [f"{kind}[{index}] {error}" for error in p["errors"]]
            seen = set()
            for csv in p["csvs"]:
                name = csv["name"]
                seen.add(name)
                ref = reference.get(name)
                why = None
                if ref is None or name not in expected:
                    why = "unexpected CSV"
                elif not csv["qvf_in_range"]:
                    why = "QVF outside [0, 1]"
                elif csv["records"] != ref["records"]:
                    why = f"{csv['records']} records, expected {ref['records']}"
                elif csv["body_digest"] != ref["body_digest"]:
                    why = "body digest differs from the reference"
                elif seed == DEFAULT_SEED and csv["digest"] != ref["digest"]:
                    why = "digest differs from the reference"
                elif first_digest.setdefault(name, csv["digest"]) != csv["digest"]:
                    why = "digest differs from an earlier pass of this run"
                if why:
                    bad.add(name)
                    problems.append(f"{kind}[{index}] {name}: {why}")
            bad |= {name for name in expected if name not in seen}
            failed += min(len(bad), p["attempted"])
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return attempted, failed


def end_to_end(raw):
    passes = raw["passes"]
    times = [p["time_to_csv_s"] for p in passes]
    rates = [sum(c["records"] for c in p["csvs"]) / p["time_to_csv_s"] for p in passes]
    return {
        "time_to_csv_s": statistics.median(times),
        "injections_per_s": statistics.median(rates),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, error_rate):
    traced = raw["traced"]
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in traced[0]["layers"]:
        values[name] = statistics.median(p["layers"][name] for p in traced)
    values.update(raw["sim"])
    untraced_s = statistics.median(p["time_to_csv_s"] for p in raw["passes"])
    traced_s = statistics.median(p["time_to_csv_s"] for p in traced)
    values["trace.overhead_share"] = traced_s / untraced_s - 1.0
    values["error_rate"] = error_rate
    return values


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    reference = json.loads((HERE / "reference.json").read_text())["csvs"]
    binary, work_dir = build()
    started = time.monotonic()
    raw = run_binary(binary, work_dir, args)
    attempted, failed = check(raw, args.seed, reference)

    host = {key: raw[key] for key in ("kernel_set", "threads", "fleet_workers",
                                      "fleet_threads_per_worker", "compiler",
                                      "build_type")}
    host = {"cpu_model": cpu_model(), "nproc": os.cpu_count(), **host}
    print("host " + json.dumps(host))
    if args.trace:
        values, units = per_layer(raw, failed / attempted), PER_LAYER_UNITS
    else:
        values, units = end_to_end(raw), END_TO_END_UNITS
    pass_s = ",".join(f"{p['time_to_csv_s']:.2f}" for p in raw["passes"])
    traced_s = ",".join(f"{p['time_to_csv_s']:.2f}" for p in raw["traced"])
    print(f"summary workload={args.workload} seed={args.seed} "
          f"pass_s=[{pass_s}] traced_pass_s=[{traced_s}] "
          f"setup_samples={len(raw['setup_s'])} "
          f"wall_s={time.monotonic() - started:.1f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
