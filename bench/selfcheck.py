#!/usr/bin/env python3
"""Checks that the benchmark measures what BENCHMARK.json says it does.

    python3 bench/selfcheck.py

1. Every workload, untraced and traced, prints exactly the metric names and
   units listed in BENCHMARK.json (end_to_end, resp. per_layer).
2. On the warm workloads the traced spans cover at least 95% of every
   operation's wall time (`trace.coverage_min`).
3. A deliberately wrong reference entry turns matching outputs into
   mismatches: fail_ratio rises and `correct` becomes false.
4. Outside a checkout (only BENCHMARK.json and bench/) the benchmark exits
   non-zero without printing a result.

Exits 1 if any check fails.  Takes about five minutes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COVERAGE_BAR = 0.95

failures = []


def report(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metric_names(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                report(False, f"{workload} trace {trace} exited "
                              f"{proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            report(got == want, f"{workload} trace {trace}: metric names and "
                                f"units match BENCHMARK.json {key}")
            if trace and workload != "cli-cold":
                cov = result["metrics"]["trace.coverage_min"]["value"]
                report(cov >= COVERAGE_BAR,
                       f"{workload}: spans cover >= {COVERAGE_BAR:.0%} of every "
                       f"operation (worst {cov:.1%})")


def check_wrong_reference():
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import reference
    import run

    def one_round():
        tasks = run.tasks_for("symbolic", random.Random(1), None, None)
        runner = run.Runner(tasks, random.Random(1))
        runner.run_round()
        return run.summarize(runner.ops)

    base = one_round()
    reference.SHIPPED["brownian.prob"]["classical"] = reference.AXINV
    wrong = one_round()
    report(wrong["failed"] > base["failed"] and wrong["mismatched"] > 0,
           f"a wrong reference entry raises fail_ratio "
           f"({base['failed']}/{base['attempted']} -> "
           f"{wrong['failed']}/{wrong['attempted']}) and flags a mismatch")


def check_outside_checkout():
    alone = BENCH / "work" / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    alone.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", alone)
    shutil.copytree(BENCH, alone / "bench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = run_bench(alone, "symbolic", 0)
    printed_result = proc.stdout.strip().startswith("{")
    report(proc.returncode != 0 and not printed_result,
           f"without src/ the benchmark exits {proc.returncode} and prints "
           f"no result")
    shutil.rmtree(alone)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_outside_checkout()
    check_metric_names(spec)
    check_wrong_reference()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
