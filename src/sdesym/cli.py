"""Batch command-line surface.

Commands: symmetries, brackets, match, find-map, verify-symmetry,
verify-map.  Problem files are parsed by the problem module; results print
as human-readable text or machine-diffable key/value lines (--output kv).

Generator printing convention: coefficient vectors are canonicalized
(reduced echelon form over the ansatz coefficients) and rescaled so the
printed coefficients become the smallest integer pattern a scalar
rescaling allows, with the first printed coefficient positive.

Exit codes: 0 success/pass, 1 stdout closed by its reader, 2 bad option
or problem/expression error, 3 solver failure, 4 algebras do not match (no
change of basis found), 5 numeric verification failure.  `main` maps each
error type to its code (EXIT_CODES); a command returns only its own
pass/fail and no-match codes.
"""

from __future__ import annotations

import argparse
import sys

from .ansatz import Ansatz, AnsatzError, sample_points, solve_symmetries
from .determining import DeterminingError, VectorField, build_system
from .expr import ExprError, ZERO, simplify
from .lie import LieError, apply_match, match_basis, structure_constants
from .numeric import (
    NumericError,
    ParameterClashError,
    joint_params,
    residual_check,
    verify_map,
    verify_symmetry,
)
from .problem import (SETTINGS, ProblemError, ProblemFile, load_problem,
                      parse_field_file, read_setting)
from .transform import PairedSymmetries, TransformError, TransformMap, solve_map

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_NO_MATCH = 4
EXIT_VERIFY = 5

# the exit code of each error a command may raise; the first matching row wins
EXIT_CODES = (
    ((ProblemError, ExprError, ParameterClashError), EXIT_PARSE),
    ((AnsatzError, DeterminingError, LieError, TransformError), EXIT_SOLVER),
    ((NumericError,), EXIT_VERIFY),
)


def _err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


def _load(path: str, args) -> ProblemFile:
    """Load a problem whose parameters all have values; a numeric flag
    (--seed, ...) overrides the problem's setting."""
    flags = {key: read_setting(key, getattr(args, key), f"--{key}")
             for key in SETTINGS if getattr(args, key, None) is not None}
    pf = load_problem(path)
    missing = sorted(k for k, v in pf.params.items() if v is None)
    if missing:
        raise ProblemError(f"{path}: parameter {', '.join(missing)} requires a value")
    pf.numeric.update(flags)
    return pf


def _solve(pf: ProblemFile, mode: str):
    ansatz = pf.ansatz
    if mode == "classical" and ansatz.phitilde:
        # classical systems have no stochastic slot; drop that dictionary
        ansatz = Ansatz(tau=ansatz.tau, phi=ansatz.phi)
    return solve_symmetries(
        pf.require_sde(), ansatz, mode, n_points=pf.numeric["points"],
        window=pf.window(), seed=pf.seed(), tol=pf.numeric["tol"])


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
    pf = _load(args.problem, args)
    basis = _solve(pf, args.mode)
    _print_basis(basis, args.output)
    return EXIT_OK


def _deterministic_subset(basis):
    return [g for g in basis if not g.has_stochastic_part()]


def cmd_brackets(args) -> int:
    pf = _load(args.problem, args)
    basis = _solve(pf, args.mode)
    fields = _deterministic_subset(basis)
    params = pf.require_sde().bound_params()
    points = sample_points(32, pf.window(), pf.seed() + 17, params=params)
    sc = structure_constants(fields, points, params)  # LieError if empty
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


def _match_pipeline(src_pf: ProblemFile, tgt_pf: ProblemFile):
    """Shared by match and find-map: solve both sides, match algebras."""
    src_basis = _solve(src_pf, "classical")
    tgt_basis = _solve(tgt_pf, "classical")
    if len(src_basis) != len(tgt_basis):
        return src_basis, tgt_basis, None
    sparams = src_pf.require_sde().bound_params()
    tparams = tgt_pf.require_sde().bound_params()
    spts = sample_points(32, src_pf.window(), src_pf.seed() + 17, params=sparams)
    tpts = sample_points(32, tgt_pf.window(), tgt_pf.seed() + 17, params=tparams)
    sc = structure_constants(list(src_basis), spts, sparams)
    tc = structure_constants(list(tgt_basis), tpts, tparams)
    m = match_basis(sc, tc, seed=src_pf.seed())
    return src_basis, tgt_basis, m


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
    *_, m = _match_pipeline(_load(args.source, args), _load(args.target, args))
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
    src_pf, tgt_pf = _load(args.source, args), _load(args.target, args)
    # refused before the solves: the map is read against the source's names
    params = joint_params(src_pf.require_sde(), tgt_pf.require_sde())
    src_basis, tgt_basis, m = _match_pipeline(src_pf, tgt_pf)
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
    matched_fields = apply_match(m.A, list(src_basis))
    pairs = PairedSymmetries.from_tx(list(zip(matched_fields, tgt_basis)))
    tmap = solve_map(pairs, src_pf.map_mu1, src_pf.map_mu2, params=params,
                     window=src_pf.window(), n_points=src_pf.numeric["points"],
                     seed=src_pf.seed(), pin=src_pf.numeric["pin"])
    _print_match(m, args.output)
    if args.output == "kv":
        print(f"map.mu1 = {tmap.mu1}")
        print(f"map.mu2 = {tmap.mu2}")
    else:
        print(f"map: mu1 = {tmap.mu1}")
        print(f"     mu2 = {tmap.mu2}")
    report = verify_map(src_pf.require_sde(), tgt_pf.require_sde(), tmap,
                        **src_pf.simulation())
    print(report.to_kv())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _field_file(path: str, pf: ProblemFile, keys: tuple) -> dict:
    """Parse a generator or map file, refusing a key outside `keys`."""
    fields = parse_field_file(path, pf.variables, tuple(pf.params))
    extra = [key for key in fields if key not in keys]
    if extra:
        raise ProblemError(f"{path}: unknown key '{extra[0]}' "
                           f"(expected {', '.join(keys)})")
    return fields


def cmd_verify_symmetry(args) -> int:
    pf = _load(args.problem, args)
    sde = pf.require_sde()
    fields = _field_file(args.generator, pf, ("tau", "phi", "phitilde"))
    v = VectorField(fields.get("tau", ZERO), fields.get("phi", ZERO),
                    fields.get("phitilde", ZERO))
    if v.is_zero():
        # the zero field moves nothing, so every check would pass
        raise ProblemError(f"{args.generator}: the generator is zero")
    mode = args.mode
    if mode == "stochastic" and sde.is_deterministic():
        mode = "det-ode"
    system = build_system(sde, v, mode)
    report = residual_check(system, sde.bound_params(),
                            window=pf.window(), seed=pf.seed())
    print(report.to_kv())
    ok = report.passed
    if ok and not v.has_stochastic_part() and not sde.is_deterministic():
        ks = verify_symmetry(sde, v, pf.numeric["eps"], **pf.simulation())
        print(ks.to_kv())
        ok = ok and ks.passed
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify_map(args) -> int:
    src_pf = _load(args.source, args)
    if args.target:
        tgt = _load(args.target, args).require_sde()
    elif src_pf.target is not None:
        tgt = src_pf.target
    else:
        raise ProblemError("no target SDE: pass a target problem or add [target.sde]")
    fields = _field_file(args.map, src_pf, ("mu1", "mu2"))
    if "mu1" not in fields or "mu2" not in fields:
        raise ProblemError(f"{args.map}: map file needs mu1 and mu2")
    tmap = TransformMap(fields["mu1"], fields["mu2"])
    report = verify_map(src_pf.require_sde(), tgt, tmap, **src_pf.simulation())
    print(report.to_kv())
    return EXIT_OK if report.passed else EXIT_VERIFY


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
    # numeric flags stay text here; _load reads them by the problem's rules
    p.add_argument("--seed", help="override problem seed")
    p.add_argument("--tol", help="rank tolerance")
    p.add_argument("--points", help="sample point count")
    p.add_argument("--paths", help="Monte-Carlo path count")
    p.add_argument("--window", help="t0,t1,x0,x1")
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
    s.add_argument("--eps", help="flow parameter")
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
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout: end quietly
        import os

        # so that the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except tuple(t for types, _ in EXIT_CODES for t in types) as e:
        _err(str(e))
        return next(code for types, code in EXIT_CODES if isinstance(e, types))


if __name__ == "__main__":
    sys.exit(main())
