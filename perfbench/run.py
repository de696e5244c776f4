#!/usr/bin/env python3
"""Run one bgpcmp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
model from ../src) into .bench_build/perfbench under the repo root, then runs
the bgpbench binary. serve-10x first writes its serving snapshot in a
separate bgpbench process, so the snapshot build never counts toward the
serving run's time or memory. A traced run writes its spans to
.bench_build/perfbench/traces/. The last line of stdout is the JSON result.
Build output goes to stderr.

BENCHMARK.json is the one list of metric names and units. bgpbench reports
the metrics a workload measures; this script checks them against the list
(by name and unit, nothing missing, nothing extra) and adds the per-layer
metrics UNEXERCISED names for the workload, as 0. A run whose metrics do not
match exits 1 without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("study-30x", "study-1x-day", "serve-10x", "churn-10x")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run must end within 180 s; stop the workload a little before that.
RUN_TIMEOUT_S = 170

# Per-layer metrics of layers or stages a workload does not run: the study
# workloads load no snapshot and apply no churn, serving builds no world and
# plans nothing, and churn's wave fan-out happens inside
# RouteCache::reconverge, where no span of the benchmark can see it
# (exec.utilization). Every other per-layer metric must be measured.
_STUDY_UNEXERCISED = (
    "core.snapshot_load_frac", "bgp.setup_warm_frac", "bgp.engine_frac",
    "core.answer_frac", "bgp.reconverge_frac", "bgp.events", "bgp.worklist_pops",
    "bgp.invalidated", "bgp.changed_routes", "bgp.changed_frac", "core.queries",
    "core.snapshot_bytes")
UNEXERCISED = {
    "study-30x": _STUDY_UNEXERCISED,
    "study-1x-day": _STUDY_UNEXERCISED,
    "serve-10x": (
        "topology.build_frac", "core.attach_frac", "bgp.setup_warm_frac",
        "bgp.engine_frac", "traffic.stream_frac", "bgp.warm_frac", "core.plan_frac",
        "core.measure_frac", "core.fold_frac", "bgp.reconverge_frac",
        "exec.plan_utilization", "exec.measure_utilization", "bgp.events",
        "bgp.worklist_pops", "bgp.invalidated", "bgp.changed_routes",
        "bgp.changed_frac", "core.pairs_planned", "core.pairs_measurable",
        "core.measurable_frac", "core.pair_windows", "core.bootstrap_resamples"),
    "churn-10x": (
        "exec.utilization", "core.snapshot_load_frac", "traffic.stream_frac",
        "bgp.warm_frac", "core.plan_frac", "core.measure_frac", "core.fold_frac",
        "core.answer_frac", "exec.plan_utilization", "exec.measure_utilization",
        "core.pairs_planned", "core.pairs_measurable", "core.measurable_frac",
        "core.pair_windows", "core.bootstrap_resamples", "core.queries",
        "core.snapshot_bytes", "traffic.prefixes"),
}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def complete(workload, trace, text, spec):
    """bgpbench's output with its result line checked against `spec`.

    A traced run also gets the workload's UNEXERCISED metrics, as 0, and a
    note naming them. The metrics come out in BENCHMARK.json's order. Raises
    ValueError when they differ from the level's list by name or unit.
    """
    lines = text.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    metrics = result.get("metrics") if isinstance(result, dict) else None
    if not isinstance(metrics, dict):
        raise ValueError("the last line is not a result with metrics")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        for name in UNEXERCISED[workload]:
            if name in metrics:
                raise ValueError(f"{name} is listed as unexercised but was measured")
            metrics[name] = {"value": 0, "unit": units.get(name)}
        lines.insert(-1, "not exercised by this workload (reported as 0): " +
                     " ".join(UNEXERCISED[workload]))
    missing = sorted(units.keys() - metrics.keys())
    extra = sorted(metrics.keys() - units.keys())
    if missing or extra:
        raise ValueError(f"metrics missing {missing}, not in BENCHMARK.json {extra}")
    for name, unit in units.items():
        if metrics[name].get("unit") != unit:
            raise ValueError(f"{name}: unit {metrics[name].get('unit')!r}, want {unit!r}")
    result["metrics"] = {name: metrics[name] for name in units}
    lines[-1] = json.dumps(result)
    return "\n".join(lines) + "\n"


def build(targets=("bgpbench",)):
    """Configure (once) and build `targets`; returns the build directory."""
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)
    return BUILD


def run(workload, seed, seconds, trace, scale=None):
    """Run one workload; returns (exit code, stdout text with the checked result).

    Raises ValueError when the result's metrics do not match BENCHMARK.json.
    """
    binary = build() / "bgpbench"
    extra = ["--scale", str(scale)] if scale else []
    snapshot = None
    if workload == "serve-10x":
        snapshot = BUILD / f"serve-{os.getpid()}.snap"
        subprocess.run([str(binary), "--write-snapshot", str(snapshot), *extra],
                       check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        extra += ["--snapshot", str(snapshot)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        extra += ["--trace-out", str(traces / f"{workload}-seed{seed}.tsv")]
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), *extra],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        if snapshot is not None:
            snapshot.unlink(missing_ok=True)
    if proc.returncode != 0:
        return proc.returncode, proc.stdout
    return 0, complete(workload, trace, proc.stdout, load_spec())


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", type=int, default=None,
                    help="world-size override (self-tests run every workload at 1x)")
    args = ap.parse_args()
    try:
        code, text = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
