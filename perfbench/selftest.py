#!/usr/bin/env python3
"""The benchmark's self-tests.

    python3 perfbench/selftest.py

1. Builds and runs perfbench_tests (GoogleTest): the percentile helper, the
   span ledger, and the traced study's bit-equality with run_scale_study at 1x.
2. Smoke-runs all four workloads at 1x, untraced and traced, through
   run.py, which checks the metrics against BENCHMARK.json by name and unit.
   Each run must verify its outputs with no failed operation, and every
   metric a workload exercises must be measured: positive (the trace
   overhead, a difference, only nonzero), while the metrics run.py lists as
   unexercised read 0. The traced runs are also the traced-equals-untraced
   check for serving and churn: a traced batch or wave that differs from its
   untraced twin counts as a failed operation.
"""

import json
import math
import subprocess
import sys

import run

SMOKE_SECONDS = 0.5
# A difference of two medians: may be negative, never exactly 0.
SIGNED = ("trace.overhead_frac",)


def check_result(workload, trace, text):
    result = json.loads(text.splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    unexercised = run.UNEXERCISED[workload] if trace else ()
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
        elif name in unexercised:
            if value != 0:
                errors.append(f"{name}: unexercised but reads {value}")
        elif value == 0 or (value < 0 and name not in SIGNED):
            errors.append(f"{name}: reads {value}, so it was not measured")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def main():
    build = run.build(("bgpbench", "perfbench_tests"))
    failures = []
    if subprocess.run([str(build / "perfbench_tests")]).returncode != 0:
        failures.append("perfbench_tests failed")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            try:
                code, text = run.run(workload, 7, SMOKE_SECONDS, trace, scale=1)
            except ValueError as e:
                failures.append(f"{workload} trace={trace}: {e}")
                continue
            if code != 0:
                failures.append(f"{workload} trace={trace}: exit {code}")
                continue
            errors = check_result(workload, trace, text)
            failures += errors
            print(f"smoke {workload} trace={trace}: {'FAILED' if errors else 'ok'}", flush=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
