"""Ansatz-based solver: determining systems -> finite linear problems.

A dictionary of basis functions per generator slot turns the determining
PDEs into a linear system by evaluation at quasi-random sample points; the
nullspace of that system yields a basis of symmetry generators.  The
quadratic phitilde^2 coupling is handled by a two-stage solve: the rows
linear in phitilde alone are solved first, then each direction is carried
through the remaining rows with its squared scale as an extra affine
unknown q = s^2 (q >= 0 checked afterwards).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.stats import qmc

from .determining import (
    PHITILDE_ROWS,
    DeterminingSystem,
    Sde,
    VectorField,
    build_system,
    classical_system,
    deterministic_ode_system,
)
from .expr import (
    Expr,
    EvalError,
    HALF,
    ZERO,
    add,
    const,
    diff,
    evaluate_points,
    finite_points,
    mul,
    param,
    parameters_of,
    simplify,
    variables_of,
)

DEFAULT_WINDOW = (0.1, 2.0, 0.5, 2.0)  # t0, t1, x0, x1
DEFAULT_RANK_TOL = 1e-9
VERIFY_TOL = 1e-8
COEFF_PREFIX = "_c"


class AnsatzError(ValueError):
    pass


class NonAffineError(AnsatzError):
    """A residual is not affine in the unknown coefficients."""


@dataclass(frozen=True)
class Ansatz:
    """Basis-function dictionaries for the generator slots.

    Each entry is an Expr in (t, x); tau entries may depend on t only.
    One fresh coefficient symbol is attached per entry when solving.
    """

    tau: tuple = ()
    phi: tuple = ()
    phitilde: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tau", tuple(self.tau))
        object.__setattr__(self, "phi", tuple(self.phi))
        object.__setattr__(self, "phitilde", tuple(self.phitilde))
        for e in self.tau:
            if "x" in variables_of(e):
                raise AnsatzError(f"tau dictionary entry '{e}' depends on x")
        for slot in (self.tau, self.phi, self.phitilde):
            for e in slot:
                extra = variables_of(e) - {"t", "x"}
                if extra:
                    raise AnsatzError(
                        f"ansatz entry '{e}' uses undeclared variables {sorted(extra)}")

    def n_unknowns(self) -> int:
        return len(self.tau) + len(self.phi) + len(self.phitilde)


@dataclass(frozen=True)
class SymmetryBasis:
    """Linearly independent generators returned by the solver."""

    generators: tuple
    mode: str
    residual_norms: tuple
    stage1_dimension: int = 0
    stage1_restricted: bool = False  # dim >= 2 stage-1 space: directions processed one at a time

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


# ---------------------------------------------------------------------------
# sample points

def sample_points(n: int, window=DEFAULT_WINDOW, seed: int = 0,
                  reject=(), params=None, max_draws: int = 50) -> list:
    """Quasi-random (Halton) points in the window, rejecting singular loci.

    A point is rejected when any expression in `reject` evaluates
    non-finite there (a domain error included).
    """
    t0, t1, x0, x1 = window
    halton = qmc.Halton(d=2, scramble=True, seed=seed)
    points = []
    for _ in range(max_draws):
        block = halton.random(max(n, 8))
        block = np.column_stack([t0 + (t1 - t0) * block[:, 0],
                                 x0 + (x1 - x0) * block[:, 1]])
        ok = np.all(np.isfinite(evaluate_points(reject, block, params)), axis=1)
        points.extend(map(tuple, block[ok].tolist()))
        if len(points) >= n:
            return points[:n]
    raise AnsatzError(
        f"could not sample {n} admissible points in window {window}")


def _singularity_guards(sde: Sde) -> list:
    f, g = sde.drift, sde.diffusion
    fx = diff(f, "x")
    gx = diff(g, "x")
    return [f, g, diff(f, "t"), fx, diff(fx, "x"), diff(g, "t"), gx, diff(gx, "x")]


# ---------------------------------------------------------------------------
# linear algebra

def build_linear_system(ds: DeterminingSystem, points, params):
    """Evaluate residuals at sample points; return (M, b) with rows
    M @ c + b = residual values stacked over (point, residual).

    Each residual is compiled once with the unknowns as extra arguments and
    evaluated at every point with the unknowns set to 0 (giving b), to each
    unit vector e_j (giving column j of M) and to a random probe (checking
    that the residual is affine).  Entries within 1e-12 of the sum of
    |top-level terms|, the magnitude that cancels, are snapped to zero.
    Raises NonAffineError when a residual is not affine in the unknowns and
    AnsatzError when a point hits an evaluation domain error.
    """
    names = tuple(ds.unknowns)
    n = len(names)
    rows = len(points) * len(ds.residuals)
    if n and rows < 3 * n:
        raise AnsatzError(
            f"need at least {3*n} rows for {n} unknowns, got {rows}; add sample points")
    probe = np.random.default_rng(7).uniform(-1.0, 1.0, size=n)
    settings = np.vstack([np.zeros(n), np.eye(n), probe])
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    grid = np.hstack([np.repeat(pts, n + 2, axis=0),
                      np.tile(settings, (len(pts), 1))])
    terms = [res.children if res.kind == "sum" else (res,) for res in ds.residuals]
    try:
        V = finite_points([c for ts in terms for c in ts], grid, params, names)
    except EvalError as err:
        raise AnsatzError(str(err)) from None
    V = V.reshape(len(pts), n + 2, -1)
    starts = np.cumsum([0, *map(len, terms)])[:-1]
    value = np.add.reduceat(V, starts, axis=-1)
    tiny = 1e-12 * np.maximum(1.0, np.add.reduceat(np.abs(V), starts, axis=-1))
    base = np.where(np.abs(value[:, 0]) <= tiny[:, 0], 0.0, value[:, 0])
    cols = value[:, 1: n + 1] - base[:, None]
    cols = np.where(np.abs(cols) <= tiny[:, 1: n + 1], 0.0, cols)
    M = cols.transpose(0, 2, 1).reshape(rows, n)
    b = base.reshape(rows)
    defect = np.abs(value[:, -1].reshape(rows) - (b + M @ probe))
    bound = 1e-6 * np.maximum(np.maximum(1.0, np.abs(b)),
                              np.max(np.abs(M), axis=1, initial=0.0))
    if n and np.any(defect > bound):
        raise NonAffineError(
            "non-affine residual detected: a quadratic coefficient term survives")
    return M, b


def nullspace(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> list:
    """Orthonormal basis of the right nullspace via SVD rank revelation."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] == 0:
        return []
    if M.shape[0] == 0:
        return [np.eye(M.shape[1])[i] for i in range(M.shape[1])]
    _, s, vh = np.linalg.svd(M)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tol * s[0]))
    return [vh[i].copy() for i in range(rank, M.shape[1])]


def _rref(vectors, snap: float = 1e-9) -> list:
    """Reduced row echelon form of the span; canonical, pivot-normalized."""
    if not vectors:
        return []
    A = np.array(vectors, dtype=float)
    rows, cols = A.shape
    piv_row = 0
    for c in range(cols):
        if piv_row >= rows:
            break
        k = piv_row + int(np.argmax(np.abs(A[piv_row:, c])))
        if abs(A[k, c]) < 1e-12:
            continue
        A[[piv_row, k]] = A[[k, piv_row]]
        A[piv_row] /= A[piv_row, c]
        for rr in range(rows):
            if rr != piv_row:
                A[rr] -= A[rr, c] * A[piv_row]
        piv_row += 1
    A = A[:piv_row]
    A[np.abs(A) < snap] = 0.0
    return [A[i] for i in range(piv_row)]


def _nice_scale(vec: np.ndarray, max_mult: int = 48) -> np.ndarray:
    """Rescale so entries become small integers when a scaling allows."""
    v = vec.copy()
    nz = np.abs(v) > 0
    if not np.any(nz):
        return v
    for m in range(1, max_mult + 1):
        w = v * m
        r = np.round(w)
        if np.all(np.abs(w - r) <= 1e-7 * max(1.0, float(np.max(np.abs(w))))) \
                and np.any(r != 0):
            ints = r.astype(int)
            g = 0
            for val in ints:
                g = math.gcd(g, abs(int(val)))
            if g > 0:
                ints = ints // g
            out = ints.astype(float)
            first = out[np.abs(out) > 0][0]
            if first < 0:
                out = -out
            return out
    first = v[nz][0]
    return v / first


def _coeff_const(v: float) -> Expr:
    # rationalize only when exact to a few ulps (0.5, 2, 1/3, ...); genuinely
    # irrational scales like sqrt(2) must stay floats or residuals degrade
    frac = Fraction(v).limit_denominator(1 << 16)
    if abs(float(frac) - v) <= 4e-16 * max(1.0, abs(v)):
        return const(frac)
    return const(v)


def _vec_to_expr(vec, basis_fns, snap: float = 1e-9) -> Expr:
    terms = []
    for coeff, fn in zip(vec, basis_fns):
        if abs(coeff) <= snap:
            continue
        terms.append(simplify(mul(_coeff_const(float(coeff)), fn)))
    return simplify(add(*terms)) if terms else ZERO


# ---------------------------------------------------------------------------
# solver

def _fresh_names(n: int, taken) -> list:
    names = []
    i = 0
    while len(names) < n:
        nm = f"{COEFF_PREFIX}{i}"
        if nm not in taken:
            names.append(nm)
        i += 1
    return names


def _linear_combo(names, basis_fns) -> Expr:
    if not names:
        return ZERO
    return add(*[mul(param(nm), fn) for nm, fn in zip(names, basis_fns)])


def _max_abs(values, axis=None):
    """Largest magnitude, infinite where any value is non-finite, so that
    a failed evaluation can never pass a `<= tol` gate."""
    mags = np.where(np.isfinite(values), np.abs(values), np.inf)
    return np.max(mags, axis=axis, initial=0.0)


def _check_dictionary_independence(fns, points, params, label):
    if len(fns) < 2:
        return
    s = np.linalg.svd(finite_points(fns, points, params), compute_uv=False)
    if s[0] == 0 or s[-1] < 1e-9 * s[0]:
        raise AnsatzError(f"{label} dictionary entries are numerically linearly dependent")


def _field_features(v: VectorField, points, params) -> np.ndarray:
    return finite_points((v.tau, v.phi, v.phitilde), points, params).reshape(-1)


def max_residual(sde: Sde, v: VectorField, mode: str, points, params) -> float:
    """Max |residual| of the full determining system for a concrete field
    (inf when a residual is non-finite at some point)."""
    system = build_system(sde, v, mode)
    return float(_max_abs(evaluate_points(system.residuals, points, params)))


def express_in_basis(generators, target: VectorField, points, params):
    """Least-squares coordinates of `target` in the generator span.

    Returns (coeffs, relative residual in max norm on the grid).
    """
    if generators:
        F = np.column_stack([_field_features(g, points, params) for g in generators])
    else:
        F = np.zeros((3 * len(points), 0))
    y = _field_features(target, points, params)
    if F.shape[1] == 0:
        coeffs = np.zeros(0)
        resid = y
    else:
        coeffs, *_ = np.linalg.lstsq(F, y, rcond=None)
        resid = F @ coeffs - y
    scale = max(1.0, float(np.max(np.abs(y))))
    return coeffs, float(np.max(np.abs(resid))) / scale


def _is_numerically_zero(e: Expr, points, params, tol=1e-12) -> bool:
    e = simplify(e)
    return e.is_zero() or _max_abs(evaluate_points([e], points, params)) <= tol


def solve_symmetries(sde: Sde, a: Ansatz, mode: str = "stochastic", *,
                     n_points: int = 64, window=DEFAULT_WINDOW, seed: int = 2026,
                     tol: float = DEFAULT_RANK_TOL,
                     verify_tol: float = VERIFY_TOL) -> SymmetryBasis:
    """Two-stage ansatz solve returning a verified symmetry basis.

    Stage 1 solves the residual rows linear in phitilde alone; stage 2
    substitutes each stage-1 direction (and phitilde = 0) and solves the
    remaining rows for (tau, phi), carrying q = scale^2 as an extra affine
    unknown whenever the quadratic coupling does not vanish.  Every returned
    generator is re-verified against the full system on a fresh point set.
    """
    if mode not in ("classical", "stochastic", "det-ode"):
        raise AnsatzError(f"unknown mode {mode!r}")
    if mode == "det-ode" and not sde.is_deterministic():
        raise AnsatzError("det-ode mode requires diffusion == 0")
    if mode == "stochastic" and sde.is_deterministic():
        mode = "det-ode"
    if mode == "classical" and a.phitilde:
        raise AnsatzError("classical mode does not accept a phitilde dictionary")

    params = sde.bound_params()
    needed = set()
    for e in (sde.drift, sde.diffusion, *a.tau, *a.phi, *a.phitilde):
        needed |= parameters_of(e)
    missing = sorted(needed - set(params))
    if missing:
        raise AnsatzError(
            f"parameters {missing} require numeric values before solving")

    guards = _singularity_guards(sde)
    points = sample_points(n_points, window, seed, reject=guards, params=params)
    fresh = sample_points(max(32, n_points // 2), window, seed + 1,
                          reject=guards, params=params)

    for label, fns in (("tau", a.tau), ("phi", a.phi), ("phitilde", a.phitilde)):
        _check_dictionary_independence(fns, points, params, label)

    taken = set(params) | needed
    pt_names = _fresh_names(len(a.phitilde), taken)
    det_names = _fresh_names(len(a.tau) + len(a.phi), taken | set(pt_names))
    tau_names = det_names[: len(a.tau)]
    phi_names = det_names[len(a.tau):]

    # ---- stage 1: rows linear in phitilde alone
    pt_rows = PHITILDE_ROWS[mode]
    stage1_dirs = []
    if a.phitilde and pt_rows:
        pt_expr = _linear_combo(pt_names, a.phitilde)
        v = VectorField(ZERO, ZERO, pt_expr)
        full = build_system(sde, v, mode)
        ds1 = DeterminingSystem(
            tuple(full.residuals[i] for i in pt_rows),
            unknowns=tuple(pt_names), label=f"{mode}:stage1")
        M1, b1 = build_linear_system(ds1, points, params)
        if float(np.max(np.abs(b1), initial=0.0)) > 1e-12:
            raise AnsatzError("stage-1 system is not homogeneous")
        for vec in _rref(nullspace(M1, tol)):
            stage1_dirs.append(_vec_to_expr(_nice_scale(vec), a.phitilde))
    stage1_dim = len(stage1_dirs)

    tau_expr = _linear_combo(tau_names, a.tau)
    phi_expr = _linear_combo(phi_names, a.phi)

    runs = [None] + list(stage1_dirs)  # None = the phitilde == 0 run
    candidates = []
    for direction in runs:
        if direction is None:
            if not det_names:
                continue
            v = VectorField(tau_expr, phi_expr, ZERO)
            ds = DeterminingSystem(build_system(sde, v, mode).residuals,
                                   unknowns=tuple(det_names), label=f"{mode}:stage2")
            M, b = build_linear_system(ds, points, params)
            if float(np.max(np.abs(b), initial=0.0)) > 1e-12:
                raise AnsatzError("stage-2 system is not homogeneous")
            for vec in _rref(nullspace(M, tol)):
                vec = _nice_scale(vec)
                candidates.append(VectorField(
                    _vec_to_expr(vec[: len(a.tau)], a.tau),
                    _vec_to_expr(vec[len(a.tau):], a.phi),
                    ZERO))
            continue

        qf = simplify(mul(HALF, diff(diff(sde.drift, "x"), "x"), direction, direction))
        qg = simplify(mul(HALF, diff(diff(sde.diffusion, "x"), "x"), direction, direction))
        if _is_numerically_zero(qf, points, params) and \
                _is_numerically_zero(qg, points, params):
            # phitilde enters the remaining rows only through its square,
            # which vanishes here: the direction decouples completely.
            candidates.append(VectorField(ZERO, ZERO, direction))
            continue

        # q-device: remaining rows are affine in (tau, phi coefficients, q)
        q_name = _fresh_names(1, taken | set(det_names) | set(pt_names))[0]
        base_v = VectorField(tau_expr, phi_expr, ZERO)
        if mode == "det-ode":
            base = deterministic_ode_system(sde, base_v)
            rows = [add(base.residuals[0], mul(param(q_name), qf))]
        else:
            base = classical_system(sde, base_v)
            rows = [add(base.residuals[0], mul(param(q_name), qf)),
                    add(base.residuals[1], mul(param(q_name), qg))]
        unknowns = tuple(det_names) + (q_name,)
        ds = DeterminingSystem(tuple(rows), unknowns=unknowns,
                               label=f"{mode}:stage2:q")
        M, b = build_linear_system(ds, points, params)
        for vec in _rref(nullspace(M, tol)):
            vec = _nice_scale(vec)
            q = vec[-1]
            if abs(q) <= 1e-10:
                candidates.append(VectorField(
                    _vec_to_expr(vec[: len(a.tau)], a.tau),
                    _vec_to_expr(vec[len(a.tau): len(det_names)], a.phi),
                    ZERO))
                continue
            if q < 0:
                vec = -vec
                q = -q
            candidates.append(VectorField(
                _vec_to_expr(vec[: len(a.tau)], a.tau),
                _vec_to_expr(vec[len(a.tau): len(det_names)], a.phi),
                simplify(mul(_coeff_const(math.sqrt(q)), direction))))

    # ---- re-verify on fresh points and keep an independent subset
    generators = []
    norms = []
    feats = []
    for v in candidates:
        res = max_residual(sde, v, mode, fresh, params)
        if res > verify_tol:
            raise AnsatzError(
                f"verification failure: generator {v} has residual {res:.3e} "
                f"> {verify_tol:.1e} at fresh points (rank tolerance misconfigured?)")
        feat = _field_features(v, fresh, params)
        norm = float(np.linalg.norm(feat))
        if norm == 0.0:
            continue
        if feats:
            F = np.column_stack(feats)
            proj, *_ = np.linalg.lstsq(F, feat, rcond=None)
            if float(np.linalg.norm(F @ proj - feat)) <= 1e-8 * norm:
                continue  # dependent on earlier generators
        feats.append(feat)
        generators.append(v)
        norms.append(res)

    return SymmetryBasis(tuple(generators), mode, tuple(norms),
                         stage1_dimension=stage1_dim,
                         stage1_restricted=stage1_dim >= 2)
