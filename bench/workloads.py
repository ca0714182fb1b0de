"""The three workloads: their inputs, operations and output checks.

Each workload writes its generated inputs (problem, map and generator
files) from the seed into its own work directory and returns a list of
tasks.  One round runs every task once, in an order drawn from the seed.
An operation is one task run once; `Task.run(round)` performs it and
`Task.check(output)` compares the result with the hand-written reference
in `reference.py`, returning None on a match or the reason it differs.

Every seed an operation uses is its base seed (written in its input file;
for cli-cold drawn from the run's seed and passed as `--seed`) plus
1000 x the round index, so repeated rounds draw fresh Monte-Carlo noise and
fresh sample points.

Library calls go through module attributes (`mods.ansatz.solve_symmetries`)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import subprocess
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

ROUND_SEED_STRIDE = 1000


class OpError(Exception):
    """A CLI command exited with a code its task does not expect."""


@dataclass
class Task:
    name: str
    run: Callable[[int], object]
    check: Callable[[object], "str | None"]
    ks: Callable[[object], "bool | None"] = field(default=lambda out: None)


def _modules():
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"sdesym.{m}") for m in
        ("problem", "determining", "ansatz", "lie", "transform", "numeric")})


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _with_seed(text: str, seed: int, **params) -> str:
    """Shipped problem text with its seed and parameter values replaced."""
    out = []
    for line in text.splitlines():
        key = line.split("=", 1)[0].strip()
        if key == "seed":
            line = f"seed = {seed}"
        for name, value in params.items():
            if key == f"param {name}":
                line = f"param {name} = {value}"
        out.append(line)
    return "\n".join(out) + "\n"


def _expect(got, want, what: str):
    if tuple(got) != tuple(want):
        return f"{what}: got {list(got)}, expected {list(want)}"
    return None


# ---------------------------------------------------------------------------
# warm library chains, mirroring what the CLI commands do

def _solve(m, pf, mode: str, seed: int):
    a = pf.ansatz
    if mode == "classical" and a.phitilde:
        a = m.ansatz.Ansatz(tau=a.tau, phi=a.phi)
    return m.ansatz.solve_symmetries(
        pf.require_sde(), a, mode, n_points=int(pf.numeric.get("points", 64)),
        window=pf.window(), seed=seed)


def _algebra(m, pf, seed: int):
    basis = _solve(m, pf, "classical", seed)
    params = pf.require_sde().bound_params()
    pts = m.ansatz.sample_points(32, pf.window(), seed + 17, params=params)
    return basis, m.lie.structure_constants(list(basis), pts, params)


def _match(m, src_path, tgt_path, rnd: int):
    src = m.problem.load_problem(str(src_path))
    tgt = m.problem.load_problem(str(tgt_path))
    seed = src.seed() + ROUND_SEED_STRIDE * rnd
    sb, sc = _algebra(m, src, seed)
    tb, tc = _algebra(m, tgt, tgt.seed() + ROUND_SEED_STRIDE * rnd)
    return src, tgt, sb, tb, m.lie.match_basis(sc, tc, seed=seed)


def _strs(basis):
    return tuple(str(g) for g in basis)


def symbolic(work: Path, problems: Path, rng) -> list:
    m = _modules()
    shipped = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(problems.glob("*.prob"))}
    seed = lambda: rng.randrange(1, 10**6)  # noqa: E731
    tasks = []

    def solve_task(name, path, mode, want):
        def run(rnd):
            pf = m.problem.load_problem(str(path))
            return _strs(_solve(m, pf, mode, pf.seed() + ROUND_SEED_STRIDE * rnd))
        return Task(name, run, lambda out: _expect(out, want, "generators"))

    # every mode on the shipped problems
    for fname, text in shipped.items():
        path = _write(work / fname, _with_seed(text, seed()))
        for mode in ("classical", "stochastic"):
            tasks.append(solve_task(f"solve:{fname}:{mode}", path, mode,
                                    ref.SHIPPED[fname][mode]))

    # parameter sweep; a = 6 and a = 8 are in the reference like the rest
    for a in (0.5, 1, 2, 4, 6, 8):
        path = _write(work / f"langevin-a{a:g}.prob",
                      _with_seed(shipped["langevin.prob"], seed(), a=a))
        tasks.append(solve_task(f"solve:langevin:a={a:g}", path, "stochastic",
                                ref.langevin(a, "stochastic")))

    # dictionary size: tau = poly(t;d), phi = phitilde = poly(t,x;d).  d = 4
    # runs on five inputs, so that the largest systems are more than a tenth
    # of the operations and set op_s.p90.
    for d, copies in ((1, 1), (2, 1), (3, 1), (4, 5)):
        for k in range(copies):
            text = _with_seed(shipped["brownian.prob"], seed())
            text = (text.replace("tau = poly(t;1)", f"tau = poly(t;{d})")
                    .replace("phi = poly(x;1)", f"phi = poly(t,x;{d})")
                    .replace("phitilde = poly(x;1)", f"phitilde = poly(t,x;{d})"))
            path = _write(work / f"brownian-poly{d}-{k}.prob", text)
            tasks.append(solve_task(f"solve:brownian:poly{d}:{k}", path,
                                    "stochastic", ref.BROWNIAN_STOCHASTIC))

    # full symbolic find-map chain: match onto Brownian, then solve the map
    brownian = _write(work / "brownian-target.prob",
                      _with_seed(shipped["brownian.prob"], seed()))
    for alpha in (0.5, 1, 2):
        path = _write(work / f"affine-alpha{alpha:g}.prob",
                      _with_seed(shipped["langevin-affine.prob"], seed(),
                                 alpha=alpha))

        def run(rnd, path=path):
            src, tgt, sb, tb, match = _match(m, path, brownian, rnd)
            if not match.matched:
                return _strs(sb), False, None
            params = {**tgt.require_sde().bound_params(),
                      **src.require_sde().bound_params()}
            fields = m.lie.apply_match(match.A, list(sb))
            pairs = m.transform.PairedSymmetries.from_tx(list(zip(fields, tb)))
            tmap = m.transform.solve_map(
                pairs, src.map_mu1, src.map_mu2, params=params,
                window=src.window(), seed=src.seed() + ROUND_SEED_STRIDE * rnd)
            return _strs(sb), True, (str(tmap.mu1), str(tmap.mu2))

        def check(out, alpha=alpha):
            gens, matched, mu = out
            return (_expect(gens, ref.affine(alpha), "source generators")
                    or (None if matched else "not matched onto Brownian")
                    or _expect(mu, ref.affine_map(alpha), "map"))
        tasks.append(Task(f"find-map:affine:alpha={alpha:g}", run, check))

    # isomorphic and non-isomorphic pairs of equal dimension
    text = _with_seed(shipped["brownian.prob"], seed())
    abelian = _write(work / "brownian-abelian.prob",
                     text.replace("tau = poly(t;1)", "tau = poly(t;0)")
                     .replace("phi = poly(x;1)", "phi = poly(x;0)"))
    scaling = _write(work / "brownian-scaling2d.prob",
                     text.replace("phi = poly(x;1)", "phi = x"))
    langevin = _write(work / "langevin-match.prob",
                      _with_seed(shipped["langevin.prob"], seed()))
    axinv = _write(work / "axinv-match.prob",
                   _with_seed(shipped["axinv.prob"], seed()))
    for src, tgt, want in ((langevin, brownian, True), (axinv, scaling, True),
                           (axinv, abelian, False), (scaling, abelian, False)):
        def run(rnd, src=src, tgt=tgt):
            return _match(m, src, tgt, rnd)[4].matched

        def check(out, want=want):
            return None if out == want else f"matched={out}, expected {want}"
        tasks.append(Task(f"match:{src.stem}:{tgt.stem}", run, check))
    return tasks


def montecarlo(work: Path, problems: Path, rng) -> list:
    m = _modules()
    affine_text = (problems / "langevin-affine.prob").read_text(encoding="utf-8")
    brownian_text = (problems / "brownian.prob").read_text(encoding="utf-8")
    seed = lambda: rng.randrange(1, 10**6)  # noqa: E731
    tasks = []

    def report_check(rep):
        if len(rep.checkpoints) != 4 or rep.n_paths != 2000:
            return f"KS report has {len(rep.checkpoints)} checkpoints, " \
                   f"{rep.n_paths} paths; expected 4 and 2000"
        if rep.aborted:
            return f"{rep.aborted} aborted paths on an SDE without singularities"
        return None

    # verify_map: Y = X exp(-alpha t), s = -exp(-2 alpha t) / (2 alpha)
    map_path = _write(work / "affine.map",
                      "mu1 = -exp(-2*alpha*t)/(2*alpha)\nmu2 = x*exp(-alpha*t)\n")
    for alpha in (0.5, 1, 2):
        for k in range(2):
            path = _write(work / f"affine-alpha{alpha:g}-{k}.prob",
                          _with_seed(affine_text, seed(), alpha=alpha))

            def run(rnd, path=path):
                pf = m.problem.load_problem(str(path))
                f = m.problem.parse_field_file(str(map_path), pf.variables,
                                               tuple(pf.params))
                tmap = m.transform.TransformMap(f["mu1"], f["mu2"])
                return m.numeric.verify_map(
                    pf.require_sde(), pf.target, tmap,
                    x0=float(pf.numeric["x0"]), h=float(pf.numeric["h"]),
                    K=int(pf.numeric["steps"]), n_paths=int(pf.numeric["paths"]),
                    seed=pf.seed() + ROUND_SEED_STRIDE * rnd)
            tasks.append(Task(f"verify-map:alpha={alpha:g}:{k}", run,
                              report_check, lambda rep: rep.passed))

    # verify_symmetry of the Brownian scaling on two inputs: residual check,
    # then flow transport and KS.  Two of eight operations, so op_s.p90 falls
    # among them and op_s.p50 among the verify_map calls.
    gen_path = _write(work / "brownian-scaling.gen",
                      "tau = 2*t\nphi = x\nphitilde = 0\n")
    for k in range(2):
        stem = f"brownian-scaling-{k}"
        path = _write(work / f"{stem}.prob", _with_seed(brownian_text, seed()))

        def run(rnd, path=path):
            pf = m.problem.load_problem(str(path))
            f = m.problem.parse_field_file(str(gen_path), pf.variables,
                                           tuple(pf.params))
            v = m.determining.VectorField(f["tau"], f["phi"], f["phitilde"])
            sde = pf.require_sde()
            s = pf.seed() + ROUND_SEED_STRIDE * rnd
            system = m.determining.build_system(sde, v, "stochastic")
            res = m.numeric.residual_check(system, sde.bound_params(),
                                           window=pf.window(), seed=s)
            ks = m.numeric.verify_symmetry(
                sde, v, 0.2, x0=float(pf.numeric["x0"]), h=float(pf.numeric["h"]),
                K=int(pf.numeric["steps"]), n_paths=int(pf.numeric["paths"]),
                seed=s)
            return res, ks

        def check(out):
            res, ks = out
            if not res.passed:
                return f"residual {res.max_abs:.3e} on a true symmetry"
            return report_check(ks)
        tasks.append(Task(f"verify-symmetry:{stem}", run, check,
                          lambda out: out[1].passed))
    return tasks


# ---------------------------------------------------------------------------
# cold CLI processes

def _kv(stdout: str, key: str):
    for line in stdout.splitlines():
        k, _, v = line.partition(" = ")
        if k == key:
            return v
    return None


def _generators(stdout: str):
    return tuple(line.split(" = ", 1)[1] for line in stdout.splitlines()
                 if line.startswith("  X") and " = " in line)


def _commutators(stdout: str) -> dict:
    """'[X1, X3] = 2*X2 + -X3' lines -> {(1, 3): {2: 2.0, 3: -1.0}}."""
    table = {}
    for line in stdout.splitlines():
        line = line.strip()
        if not line.startswith("[X"):
            continue
        lhs, rhs = line.split(" = ")
        i, j = (int(s.strip(" X")) for s in lhs.strip("[]").split(","))
        row = table.setdefault((i, j), {})
        for term in rhs.split(" + ") if rhs != "0" else ():
            coef, _, gen = term.rpartition("X")
            coef = coef.rstrip("*")
            row[int(gen)] = float(coef) if coef not in ("", "-") else \
                (-1.0 if coef == "-" else 1.0)
    return table


def _ks_verdict(out):
    code, stdout = out
    return _kv(stdout, "pass") == "true"


def _ks_consistent(out):
    code, stdout = out
    passed = _kv(stdout, "pass")
    if passed is None or (passed == "true") != (code == 0):
        return f"exit code {code} disagrees with 'pass = {passed}'"
    return None


def cli_cold(work: Path, problems: Path, rng, launcher: list, env: dict) -> list:
    """Tasks that each start `launcher + args` as a fresh process.

    `launcher` is `[python, -m, sdesym.cli]` or the traced launcher; each
    process runs in the checkout root with environment `env`.
    """
    gen = _write(work / "x4.gen", ref.X4_GENERATOR_FILE)
    amap = _write(work / "affine.map", ref.AFFINE_MAP_FILE)
    root = problems.parent
    p = {name: f"problems/{name}" for name in
         ("axinv.prob", "brownian.prob", "langevin-affine.prob", "langevin.prob")}
    tasks = []

    def add(name, args, codes, check, ks=lambda out: None):
        base = rng.randrange(1, 10**6)

        def run(rnd):
            cmd = [*launcher, "--seed", str(base + ROUND_SEED_STRIDE * rnd), *args]
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                                  text=True, timeout=170)
            if proc.returncode not in codes:
                raise OpError(f"exit {proc.returncode}: {proc.stderr.strip()}")
            return proc.returncode, proc.stdout
        tasks.append(Task(name, run, check, ks))

    for fname in sorted(p):
        add(f"symmetries:{fname}", ["symmetries", p[fname]], (0,),
            lambda out, fname=fname: _expect(
                _generators(out[1]), ref.SHIPPED[fname]["stochastic"],
                "generators"))

    def brackets(out):
        got = _commutators(out[1])
        want = ref.AFFINE_BRACKETS
        close = got.keys() == want.keys() and all(
            got[ij].keys() == want[ij].keys()
            and all(abs(got[ij][k] - c) <= 1e-8 for k, c in want[ij].items())
            for ij in want)
        return (_expect(_generators(out[1]), ref.affine(1), "basis")
                or (None if close else f"commutators {got}, expected {want}"))
    add("brackets", ["--mode", "classical", "brackets", p["langevin-affine.prob"]],
        (0,), brackets)

    def matched(out):
        first = out[1].splitlines()[0] if out[1] else ""
        return None if first.startswith("matched: True") else f"got {first!r}"
    add("match", ["match", p["langevin-affine.prob"], p["brownian.prob"]], (0,),
        matched)

    def find_map(out):
        mu1, mu2 = ref.affine_map(1)
        want = (f"map: mu1 = {mu1}", f"     mu2 = {mu2}")
        got = tuple(s for s in out[1].splitlines()
                    if s.startswith(("map: ", "     mu2")))
        return matched(out) or _expect(got, want, "map") or _ks_consistent(out)
    add("find-map", ["find-map", p["langevin-affine.prob"], p["brownian.prob"]],
        (0, 5), find_map, _ks_verdict)

    add("verify-map", ["verify-map", p["langevin-affine.prob"], "--map",
                       str(amap.relative_to(root))],
        (0, 5), _ks_consistent, _ks_verdict)

    def residual(out):
        got = _kv(out[1], "residual.pass")
        return None if got == "true" else f"residual.pass = {got}"
    add("verify-symmetry", ["verify-symmetry", p["brownian.prob"], "--generator",
                            str(gen.relative_to(root))], (0,), residual)
    return tasks
