"""Batch command-line surface.

Commands: symmetries, brackets, match, find-map, verify-symmetry,
verify-map.  Problem files are parsed by the problem module; results print
as human-readable text or machine-diffable key/value lines (--output kv).

Generator printing convention: coefficient vectors are canonicalized
(reduced echelon form over the ansatz coefficients) and rescaled so the
printed coefficients become the smallest integer pattern a scalar
rescaling allows, with the first printed coefficient positive.

Exit codes: 0 success/pass, 2 bad option or problem/expression error,
3 solver failure, 4 algebras do not match (no change of basis found),
5 numeric verification failure.  `main` maps each error type to its code
(EXIT_CODES); a command returns only its own pass/fail and no-match codes.
"""

from __future__ import annotations

import argparse
import math
import sys

from .ansatz import Ansatz, AnsatzError, sample_points, solve_symmetries
from .determining import DeterminingError, Sde, VectorField, build_system
from .expr import ExprError, ZERO, simplify
from .lie import LieError, apply_match, match_basis, structure_constants
from .numeric import (
    NumericError,
    residual_check,
    verify_map,
    verify_symmetry,
)
from .problem import ProblemError, ProblemFile, load_problem, parse_field_file
from .transform import PairedSymmetries, TransformError, TransformMap, solve_map

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_NO_MATCH = 4
EXIT_VERIFY = 5

# the exit code of each error a command may raise; the first matching row wins
EXIT_CODES = (
    ((ProblemError, ExprError), EXIT_PARSE),
    ((AnsatzError, DeterminingError, LieError, TransformError), EXIT_SOLVER),
    ((NumericError,), EXIT_VERIFY),
)


def _err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


def _window(pf: ProblemFile, args):
    return args.window or pf.window()


def _seed(pf: ProblemFile, args) -> int:
    return args.seed if args.seed is not None else pf.seed()


def _check_params_bound(pf: ProblemFile):
    missing = sorted(k for k, v in pf.params.items() if v is None)
    if missing:
        raise ProblemError(
            f"parameter {', '.join(missing)} requires a value or must "
            f"appear in ansatz rates")


def _solve(pf: ProblemFile, mode: str, args):
    _check_params_bound(pf)
    ansatz = pf.ansatz
    if mode == "classical" and ansatz.phitilde:
        # classical systems have no stochastic slot; drop that dictionary
        ansatz = Ansatz(tau=ansatz.tau, phi=ansatz.phi)
    return solve_symmetries(
        pf.require_sde(), ansatz, mode,
        n_points=args.points or int(pf.numeric.get("points", 64)),
        window=_window(pf, args), seed=_seed(pf, args),
        tol=args.tol or float(pf.numeric.get("tol", 1e-9)))


def _print_basis(basis, output: str):
    if output == "kv":
        print(f"basis.mode = {basis.mode}")
        print(f"basis.n = {len(basis)}")
        print(f"basis.stage1_dimension = {basis.stage1_dimension}")
        for i, g in enumerate(basis, start=1):
            print(f"basis.{i}.tau = {simplify(g.tau)}")
            print(f"basis.{i}.phi = {simplify(g.phi)}")
            print(f"basis.{i}.phitilde = {simplify(g.phitilde)}")
    else:
        print(f"mode: {basis.mode}")
        print(f"stage-1 phitilde space dimension: {basis.stage1_dimension}")
        if basis.stage1_restricted:
            print("note: stage-1 dimension >= 2; directions were processed "
                  "one at a time (cross terms not explored)")
        print(f"generators ({len(basis)}):")
        for i, g in enumerate(basis, start=1):
            print(f"  X{i} = {g}")


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e12:
        return str(int(v))
    return f"{v:.10g}"


def cmd_symmetries(args) -> int:
    pf = load_problem(args.problem)
    basis = _solve(pf, args.mode, args)
    _print_basis(basis, args.output)
    return EXIT_OK


def _deterministic_subset(basis):
    return [g for g in basis if not g.has_stochastic_part()]


def cmd_brackets(args) -> int:
    pf = load_problem(args.problem)
    basis = _solve(pf, args.mode, args)
    fields = _deterministic_subset(basis)
    if not fields:
        raise LieError("no deterministic generators to bracket")
    params = pf.require_sde().bound_params()
    points = sample_points(32, _window(pf, args), _seed(pf, args) + 17,
                           params=params)
    sc = structure_constants(fields, points, params)
    n = sc.n
    if args.output == "kv":
        print(f"algebra.n = {n}")
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    v = sc.entry(k, i, j)
                    if abs(v) > 1e-10:
                        print(f"c.{k+1}.{i+1}.{j+1} = {_fmt_num(v)}")
        print(f"jacobi_violation = {sc.jacobi_violation():.3e}")
    else:
        print(f"deterministic basis ({n}):")
        for i, g in enumerate(fields, start=1):
            print(f"  X{i} = {g}")
        print("commutators:")
        for i in range(n):
            for j in range(i + 1, n):
                terms = []
                for k in range(n):
                    v = sc.entry(k, i, j)
                    if abs(v) > 1e-10:
                        num = _fmt_num(v)
                        coef = {"1": "", "-1": "-"}.get(num, f"{num}*")
                        terms.append(f"{coef}X{k+1}")
                rhs = " + ".join(terms) if terms else "0"
                print(f"  [X{i+1}, X{j+1}] = {rhs}")
        print(f"jacobi violation: {sc.jacobi_violation():.3e}")
    return EXIT_OK


def _match_pipeline(args):
    """Shared by match and find-map: solve both sides, match algebras."""
    src_pf = load_problem(args.source)
    tgt_pf = load_problem(args.target)
    src_basis = _solve(src_pf, "classical", args)
    tgt_basis = _solve(tgt_pf, "classical", args)
    if len(src_basis) != len(tgt_basis):
        return src_pf, tgt_pf, src_basis, tgt_basis, None, None, None
    sparams = src_pf.require_sde().bound_params()
    tparams = tgt_pf.require_sde().bound_params()
    spts = sample_points(32, _window(src_pf, args), _seed(src_pf, args) + 17,
                         params=sparams)
    tpts = sample_points(32, _window(tgt_pf, args), _seed(tgt_pf, args) + 17,
                         params=tparams)
    sc = structure_constants(list(src_basis), spts, sparams)
    tc = structure_constants(list(tgt_basis), tpts, tparams)
    m = match_basis(sc, tc, seed=_seed(src_pf, args))
    return src_pf, tgt_pf, src_basis, tgt_basis, sc, tc, m


def _print_match(m, output: str):
    n = m.A.shape[0]
    if output == "kv":
        print(f"match.matched = {str(m.matched).lower()}")
        print(f"match.residual = {m.residual:.3e}")
        for i in range(n):
            row = " ".join(_fmt_num(float(v)) for v in m.A[i])
            print(f"match.A.{i+1} = {row}")
    else:
        print(f"matched: {m.matched} (residual {m.residual:.3e})")
        print("change of basis A (rows: transformed source generators):")
        for i in range(n):
            print("  [" + "  ".join(f"{float(v):10.6g}" for v in m.A[i]) + "]")


def cmd_match(args) -> int:
    *_, m = _match_pipeline(args)
    if m is None:
        _err("algebra dimensions differ; no match attempted")
        return EXIT_NO_MATCH
    _print_match(m, args.output)
    if not m.matched:
        _err("no change of basis matches the commutator tables "
             "(algebras may be non-isomorphic)")
        return EXIT_NO_MATCH
    return EXIT_OK


def cmd_find_map(args) -> int:
    src_pf, tgt_pf, src_basis, tgt_basis, sc, tc, m = _match_pipeline(args)
    if m is None:
        _err(f"algebra dimensions differ ({len(src_basis)} vs {len(tgt_basis)}); "
             f"no map attempted")
        return EXIT_NO_MATCH
    if not m.matched:
        _print_match(m, args.output)
        _err("no change of basis matches the commutator tables "
             "(algebras may be non-isomorphic)")
        return EXIT_NO_MATCH
    if not src_pf.map_mu1 or not src_pf.map_mu2:
        raise ProblemError(
            f"{src_pf.path}: find-map needs a [map.ansatz] section with mu1 and mu2")
    params = {**tgt_pf.require_sde().bound_params(),
              **src_pf.require_sde().bound_params()}
    matched_fields = apply_match(m.A, list(src_basis))
    pairs = PairedSymmetries.from_tx(list(zip(matched_fields, tgt_basis)))
    pin = src_pf.numeric.get("pin")
    tmap = solve_map(pairs, src_pf.map_mu1, src_pf.map_mu2, params=params,
                     window=_window(src_pf, args), seed=_seed(src_pf, args),
                     pin=pin)
    _print_match(m, args.output)
    if args.output == "kv":
        print(f"map.mu1 = {tmap.mu1}")
        print(f"map.mu2 = {tmap.mu2}")
    else:
        print(f"map: mu1 = {tmap.mu1}")
        print(f"     mu2 = {tmap.mu2}")
    report = _run_verify_map(src_pf, tgt_pf.require_sde(), tmap, args)
    print(report.to_kv())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _numeric_settings(pf: ProblemFile, args):
    return {
        "x0": float(pf.numeric.get("x0", 1.0)),
        "h": float(pf.numeric.get("h", 1e-3)),
        "K": int(pf.numeric.get("steps", 1000)),
        "n_paths": args.paths or int(pf.numeric.get("paths", 2000)),
        "seed": _seed(pf, args),
    }


def _run_verify_map(src_pf: ProblemFile, tgt: Sde, tmap: TransformMap, args):
    ns = _numeric_settings(src_pf, args)
    return verify_map(src_pf.require_sde(), tgt, tmap, **ns)


def cmd_verify_symmetry(args) -> int:
    pf = load_problem(args.problem)
    _check_params_bound(pf)
    sde = pf.require_sde()
    fields = parse_field_file(args.generator, pf.variables, tuple(pf.params))
    v = VectorField(fields.get("tau", ZERO), fields.get("phi", ZERO),
                    fields.get("phitilde", ZERO))
    mode = args.mode
    if mode == "stochastic" and sde.is_deterministic():
        mode = "det-ode"
    system = build_system(sde, v, mode)
    report = residual_check(system, sde.bound_params(),
                            window=_window(pf, args), seed=_seed(pf, args))
    print(report.to_kv())
    ok = report.passed
    if ok and not v.has_stochastic_part() and not sde.is_deterministic():
        eps = args.eps if args.eps is not None else float(pf.numeric.get("eps", 0.2))
        ns = _numeric_settings(pf, args)
        ks = verify_symmetry(sde, v, eps, **ns)
        print(ks.to_kv())
        ok = ok and ks.passed
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify_map(args) -> int:
    src_pf = load_problem(args.source)
    _check_params_bound(src_pf)
    if args.target:
        tgt = load_problem(args.target).require_sde()
    elif src_pf.target is not None:
        tgt = src_pf.target
    else:
        raise ProblemError("no target SDE: pass a target problem or add [target.sde]")
    fields = parse_field_file(args.map, src_pf.variables, tuple(src_pf.params))
    if "mu1" not in fields or "mu2" not in fields:
        raise ProblemError(f"{args.map}: map file needs mu1 and mu2")
    tmap = TransformMap(fields["mu1"], fields["mu2"])
    report = _run_verify_map(src_pf, tgt, tmap, args)
    print(report.to_kv())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _option(convert, ok, what):
    """argparse type: convert the text and refuse a value failing `ok`, so
    that a bad option exits 2 with a usage error."""
    def check(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return check


_SEED = _option(int, lambda v: v >= 0, "an integer >= 0")
_COUNT = _option(int, lambda v: v >= 1, "an integer >= 1")
_TOL = _option(float, lambda v: 0 < v < math.inf, "a finite float > 0")
_EPS = _option(float, lambda v: v != 0 and math.isfinite(v), "a finite nonzero float")
_WINDOW = _option(lambda text: tuple(float(v) for v in text.split(",")),
                  lambda v: len(v) == 4 and all(map(math.isfinite, v)),
                  "four finite floats t0,t1,x0,x1")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sdesym",
        description="Lie symmetries of scalar Ito SDEs: determining systems, "
                    "symmetry algebras, transformation maps, Monte-Carlo checks.",
        epilog="Printed generators are canonicalized: coefficient vectors are "
               "put in reduced echelon form over the ansatz coefficients, then "
               "rescaled to the smallest integer pattern a scalar rescaling "
               "allows, first printed coefficient positive (so the Brownian "
               "scaling symmetry prints as [2*t d/dt + x d/dx]^D). Output is "
               "byte-stable for a fixed --seed.")
    p.add_argument("--seed", type=_SEED, default=None, help="override problem seed")
    p.add_argument("--tol", type=_TOL, default=None, help="rank tolerance")
    p.add_argument("--points", type=_COUNT, default=None, help="sample point count")
    p.add_argument("--paths", type=_COUNT, default=None, help="Monte-Carlo path count")
    p.add_argument("--window", type=_WINDOW, default=None, help="t0,t1,x0,x1")
    p.add_argument("--mode", choices=("classical", "stochastic", "det-ode"),
                   default="stochastic", help="determining system flavor")
    p.add_argument("--output", choices=("text", "kv"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("symmetries", help="solve the determining system")
    s.add_argument("problem")
    s.set_defaults(fn=cmd_symmetries)

    s = sub.add_parser("brackets", help="commutator table of the deterministic basis")
    s.add_argument("problem")
    s.set_defaults(fn=cmd_brackets)

    s = sub.add_parser("match", help="match source and target symmetry algebras")
    s.add_argument("source")
    s.add_argument("target")
    s.set_defaults(fn=cmd_match)

    s = sub.add_parser("find-map", help="solve for a map carrying source onto target")
    s.add_argument("source")
    s.add_argument("target")
    s.set_defaults(fn=cmd_find_map)

    s = sub.add_parser("verify-symmetry", help="certify a candidate generator")
    s.add_argument("problem")
    s.add_argument("--generator", required=True, help="file with tau/phi/phitilde")
    s.add_argument("--eps", type=_EPS, default=None, help="flow parameter")
    s.set_defaults(fn=cmd_verify_symmetry)

    s = sub.add_parser("verify-map", help="certify a candidate map")
    s.add_argument("source")
    s.add_argument("target", nargs="?", default=None)
    s.add_argument("--map", required=True, help="file with mu1/mu2")
    s.set_defaults(fn=cmd_verify_map)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(t for types, _ in EXIT_CODES for t in types) as e:
        _err(str(e))
        return next(code for types, code in EXIT_CODES if isinstance(e, types))


if __name__ == "__main__":
    sys.exit(main())
