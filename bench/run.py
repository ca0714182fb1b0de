#!/usr/bin/env python3
"""sdesym benchmark: one closed-loop client, outputs checked, metrics printed.

    python3 bench/run.py --workload {cli-cold,symbolic,montecarlo} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/` there
(see README.md in this directory).  The run

1. imports `sdesym.cli` in this process, then times `import sdesym.cli` in
   three fresh processes: `setup_s` is their median;
2. writes the workload's inputs for `--seed` under `bench/work/`;
3. for the warm workloads, runs one task of each kind untimed, so first
   calls and lazy imports are done before timing;
4. runs whole rounds of the workload's tasks, one operation at a time, until
   at least `--seconds` have passed, and checks every output against the
   hand-written reference;
5. prints a readable report and, as its last line, one JSON object.

With `--trace 0` the JSON holds the end-to-end metrics.  With `--trace 1`
one round runs untraced, then rounds run with every public sdesym function
wrapped (see spans.py), and the JSON holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from spans import LAYERS, Tracer, merge, register_counters

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBLEMS = ROOT / "problems"
WORK = BENCH / "work"

WORKLOADS = ("cli-cold", "symbolic", "montecarlo")
SETUP_REPS = 3
# One BLAS thread: the same setting on every commit, and at most nproc.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import_s(env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sdesym.cli"], cwd=ROOT,
                   env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def import_times_s(env) -> dict:
    """Cumulative import times from `-X importtime` in a fresh process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import sdesym.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    out = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


@dataclass(frozen=True)
class Op:
    """One operation as run: outcome, wall time and KS verdict, if any."""

    task: str
    seconds: float
    status: str          # "ok", "mismatch" or "error: ..."
    reason: str | None   # how the output differs from the reference
    ks_passed: bool | None
    trace_id: int


class Runner:
    """Runs whole rounds of tasks and records every operation."""

    def __init__(self, tasks, rng):
        self.tasks = tasks
        self.rng = rng
        self.tracer = None
        self.round = 0
        self.ops = []

    def warm_up(self):
        """Run the first task of each kind (name up to ':') once, unrecorded."""
        kinds = {}
        for task in self.tasks:
            kinds.setdefault(task.name.split(":")[0], task)
        for task in kinds.values():
            try:
                task.run(0)
            except Exception:  # a refusal here shows again in the measured rounds
                pass

    def run_round(self, record=True) -> float:
        order = list(self.tasks)
        self.rng.shuffle(order)
        t_round = time.perf_counter()
        for task in order:
            trace_id = 0
            if self.tracer is not None:
                self.tracer.op += 1
                trace_id = self.tracer.op
            t0 = time.perf_counter()
            try:
                out = task.run(self.round)
                status = "ok"
            except Exception as exc:  # any refusal is a failed operation
                out, status = None, f"error: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            reason = ks = None
            if out is not None:
                reason, ks = task.check(out), task.ks(out)
                if reason is not None:
                    status = "mismatch"
            if record:
                self.ops.append(Op(task.name, dt, status, reason, ks, trace_id))
        self.round += 1
        return time.perf_counter() - t_round

    def run_for(self, seconds: float) -> tuple:
        """Whole rounds until `seconds` have passed; (elapsed, round times)."""
        t0 = time.perf_counter()
        rounds = []
        while True:
            rounds.append(self.run_round())
            if time.perf_counter() - t0 >= seconds:
                return time.perf_counter() - t0, rounds


def tasks_for(workload: str, rng, launcher, env):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == "cli-cold":
        return workloads.cli_cold(work, PROBLEMS, rng, launcher, env)
    return getattr(workloads, workload)(work, PROBLEMS, rng)


def summarize(ops) -> dict:
    times = [op.seconds for op in ops]
    verdicts = [op.ks_passed for op in ops if op.ks_passed is not None]
    return {
        "attempted": len(ops),
        "failed": sum(op.status != "ok" for op in ops),
        "mismatched": sum(op.status == "mismatch" for op in ops),
        "p50": statistics.median(times),
        "p90": (statistics.quantiles(times, n=10, method="inclusive")[8]
                if len(times) > 1 else times[0]),
        "ks_pass": sum(verdicts), "ks_total": len(verdicts),
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


TIMED = ("problem.load_problem", "expr.simplify", "expr.diff",
         "determining.build_system", "ansatz.build_linear_system",
         "ansatz.nullspace", "ansatz.sample_points", "ansatz.max_residual",
         "ansatz.solve_symmetries", "lie.structure_constants",
         "lie.match_basis", "transform.solve_map", "numeric.flow_apply",
         "numeric.euler_maruyama", "numeric.ks_two_sample",
         "numeric.residual_check", "numeric.verify_map",
         "numeric.verify_symmetry")
COUNTERS = (("ansatz.build_linear_system", "rows"),
            ("ansatz.build_linear_system", "unknowns"),
            ("numeric.flow_apply", "cells"),
            ("numeric.euler_maruyama", "path_steps"))


def layer_metrics(summary, imports, s, overhead, coverage) -> dict:
    calls, self_s, extra = summary["calls"], summary["self_s"], summary["extra"]
    out = {"import.sdesym_cli_s": (imports.get("sdesym.cli", 0.0), "s"),
           "import.scipy_stats_s": (imports.get("scipy.stats", 0.0), "s")}
    for name in ("expr.evaluate", "expr.compile_fn"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in TIMED:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name, counter in COUNTERS:
        out[f"{name}.{counter}"] = (extra.get(name, {}).get(counter, 0), "count")
    n_match = calls.get("lie.match_basis", 0)
    matched = extra.get("lie.match_basis", {}).get("matched", 0)
    out["lie.match_basis.matched_ratio"] = (matched / n_match if n_match else 0.0,
                                            "ratio")
    layer_self = {layer: sum(v for k, v in self_s.items()
                             if k.startswith(layer + ".")) for layer in LAYERS}
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    # all the cli layer does itself under main: argument parsing and the
    # cmd_* handlers' formatting and printing
    out["cli.main.self_s"] = (layer_self["cli"], "s")
    out["numeric.ks_pass_ratio"] = (s["ks_pass"] / s["ks_total"]
                                    if s["ks_total"] else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["trace.coverage_min"] = (coverage, "ratio")
    return out


def run_traced(runner, workload, seconds, launcher, package):
    """One untraced round, then traced rounds; (elapsed, rounds, summary,
    overhead, coverage)."""
    untraced = runner.run_round(record=False)
    if workload == "cli-cold":
        spans_dir = WORK / workload / "spans"
        spans_dir.mkdir()
        launcher[:] = [sys.executable, str(BENCH / "launch.py"), str(spans_dir)]
        elapsed, rounds = runner.run_for(seconds)
        # one file per process, named by its start time, so in op order
        data = [json.loads(f.read_text(encoding="utf-8"))
                for f in sorted(spans_dir.glob("*.json"))]
        if len(data) != len(runner.ops):
            raise RuntimeError(f"{len(data)} trace files for "
                               f"{len(runner.ops)} traced commands")
        summary = merge(d["summary"] for d in data)
        # share of each command's process wall time spent under main
        coverage = min(d["main_s"] / op.seconds for d, op in zip(data, runner.ops))
    else:
        tracer = Tracer()
        register_counters(tracer)
        tracer.install(package)
        runner.tracer = tracer
        try:
            elapsed, rounds = runner.run_for(seconds)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        tracer.write_spans(WORK / workload / "spans.jsonl")
        coverage = min(tracer.root_s.get(op.trace_id, 0.0) / op.seconds
                       for op in runner.ops)
    return elapsed, rounds, summary, statistics.median(rounds) / untraced, coverage


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sdesym" / "cli.py").is_file() or not PROBLEMS.is_dir():
        print(f"error: run from a checkout of sdesym: no {SRC / 'sdesym'} "
              f"or {PROBLEMS}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)   # before numpy is imported
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import sdesym
    import sdesym.cli  # noqa: F401  (loads every module; writes bytecode)
    if Path(sdesym.__file__).resolve().parent != (SRC / "sdesym").resolve():
        print(f"error: sdesym imported from {sdesym.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = child_env()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    setup = [fresh_import_s(env) for _ in range(SETUP_REPS)]
    setup_s = statistics.median(setup)
    print(f"setup_s = {setup_s:.4f} s  (median of {SETUP_REPS} fresh "
          f"`import sdesym.cli`: {', '.join(f'{t:.3f}' for t in setup)})")

    rng = random.Random(args.seed)
    launcher = [sys.executable, "-m", "sdesym.cli"]
    tasks = tasks_for(args.workload, rng, launcher, env)
    runner = Runner(tasks, rng)
    if args.workload != "cli-cold":
        runner.warm_up()
    if args.trace:
        elapsed, rounds, summary, overhead, coverage = run_traced(
            runner, args.workload, args.seconds, launcher, sdesym)
    else:
        elapsed, rounds = runner.run_for(args.seconds)

    s = summarize(runner.ops)
    print(f"ops {s['attempted']} in {len(rounds)} rounds of {len(tasks)} tasks, "
          f"{elapsed:.2f} s")
    print(f"op_s.p50 = {s['p50']:.4f} s  op_s.p90 = {s['p90']:.4f} s  "
          f"(n = {s['attempted']})")
    print(f"fail_ratio = {s['failed']}/{s['attempted']} = "
          f"{s['failed'] / s['attempted']:.4f}  ({s['mismatched']} differ from "
          f"the reference, {s['failed'] - s['mismatched']} refused)")
    if s["ks_total"]:
        print(f"ks_pass_ratio = {s['ks_pass']}/{s['ks_total']} = "
              f"{s['ks_pass'] / s['ks_total']:.4f}")
    for name, op in {op.task: op for op in runner.ops if op.status != "ok"}.items():
        print(f"failed: {name}: {op.reason or op.status}")

    if args.trace:
        metrics = layer_metrics(summary, import_times_s(env), s, overhead,
                                coverage)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_s.p50": (s["p50"], "s"),
            "op_s.p90": (s["p90"], "s"),
            "ops_per_s": (s["attempted"] / elapsed, "1/s"),
            "ok_ratio": ((s["attempted"] - s["failed"]) / s["attempted"], "ratio"),
            "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": s["mismatched"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
