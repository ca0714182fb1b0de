"""Transformation maps between SDEs from matched symmetry pairs.

Each pair (source generator v, target generator u) contributes four
residual rows tying the unknown map mu = (mu1(t,x), mu2(t,x)) to the pair:

    rho o mu  - (mu1_t*tau + mu1_x*phi + (1/2)*mu1_xx*phitilde^2)
    mu1_x * phitilde
    psi o mu  - (mu2_t*tau + mu2_x*phi + (1/2)*mu2_xx*phitilde^2)
    psitilde o mu - mu2_x*phitilde

Compositions substitute {s -> mu1, y -> mu2} into the target coefficients.
The solver is affine (evaluation-based least squares with minimum-norm
gauge) when the target coefficients are affine in (s, y); otherwise a
Gauss-Newton path with random restarts takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import (
    DEFAULT_WINDOW,
    NonAffineError,
    _fresh_names,
    _linear_combo,
    _max_abs,
    _vec_to_expr,
    build_linear_system,
    sample_points,
)
from .determining import DeterminingSystem, VectorField
from .expr import (
    Expr,
    HALF,
    add,
    diff,
    evaluate_points,
    finite_points,
    mul,
    parameters_of,
    simplify,
    substitute,
    variables_of,
)
from .lie import _gauss_newton

MAP_TOL = 1e-8


class TransformError(ValueError):
    pass


class NoMapError(TransformError):
    pass


@dataclass(frozen=True)
class TransformMap:
    """Candidate map (t, x) -> (new time mu1, new state mu2)."""

    mu1: Expr
    mu2: Expr

    def time_only(self) -> bool:
        return "x" not in variables_of(self.mu1)

    def __str__(self):
        return f"mu1 = {self.mu1}; mu2 = {self.mu2}"


@dataclass(frozen=True)
class PairedSymmetries:
    """Matched pairs (source field in (t,x), target field in (s,y))."""

    pairs: tuple

    def __post_init__(self):
        if not self.pairs:
            raise TransformError("at least one symmetry pair is required")
        for _, u in self.pairs:
            for label, e in (("rho", u.tau), ("psi", u.phi), ("psitilde", u.phitilde)):
                extra = variables_of(e) - {"s", "y"}
                if extra:
                    raise TransformError(
                        f"target coefficient {label} mentions undeclared "
                        f"variables {sorted(extra)} (expected s, y)")

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    @classmethod
    def from_tx(cls, pairs) -> "PairedSymmetries":
        """Build from target fields written in (t, x); relabels them to (s, y)."""
        from .expr import var

        relabel = {"t": var("s"), "x": var("y")}
        conv = []
        for v, u in pairs:
            conv.append((v, VectorField(
                simplify(substitute(u.tau, relabel)),
                simplify(substitute(u.phi, relabel)),
                simplify(substitute(u.phitilde, relabel)))))
        return cls(tuple(conv))


def transformation_system(pairs: PairedSymmetries, mu1: Expr, mu2: Expr,
                          unknowns=()) -> DeterminingSystem:
    """Residual rows of the map conditions for every pair."""
    comp = {"s": mu1, "y": mu2}
    mu1_t, mu1_x = diff(mu1, "t"), diff(mu1, "x")
    mu1_xx = diff(mu1_x, "x")
    mu2_t, mu2_x = diff(mu2, "t"), diff(mu2, "x")
    mu2_xx = diff(mu2_x, "x")
    residuals = []
    for v, u in pairs:
        tau, phi, pt = v.tau, v.phi, v.phitilde
        pt2 = mul(pt, pt)
        rho_c = substitute(u.tau, comp)
        psi_c = substitute(u.phi, comp)
        psit_c = substitute(u.phitilde, comp)
        residuals.append(simplify(add(
            rho_c, mul(-1, mul(mu1_t, tau)), mul(-1, mul(mu1_x, phi)),
            mul(-1, mul(HALF, mu1_xx, pt2)))))
        residuals.append(simplify(mul(mu1_x, pt)))
        residuals.append(simplify(add(
            psi_c, mul(-1, mul(mu2_t, tau)), mul(-1, mul(mu2_x, phi)),
            mul(-1, mul(HALF, mu2_xx, pt2)))))
        residuals.append(simplify(add(psit_c, mul(-1, mul(mu2_x, pt)))))
    return DeterminingSystem(tuple(residuals), unknowns=tuple(unknowns),
                             label="transform")


def _system_max_residual(pairs, tmap: TransformMap, points, params) -> float:
    system = transformation_system(pairs, tmap.mu1, tmap.mu2)
    return float(_max_abs(evaluate_points(system.residuals, points, params)))


def _monotone_mu1(mu1: Expr, window, params, n: int = 64) -> bool:
    t0, t1 = window[0], window[1]
    xm = 0.5 * (window[2] + window[3])
    grid = [(t0 + (t1 - t0) * i / (n - 1), xm) for i in range(n)]
    return bool(np.all(evaluate_points([diff(mu1, "t")], grid, params) > 0.0))


def solve_map(pairs: PairedSymmetries, mu1_basis, mu2_basis, *,
              params=None, window=DEFAULT_WINDOW, n_points: int = 64,
              seed: int = 2026, tol: float = 1e-9, verify_tol: float = MAP_TOL,
              pin=None, restarts: int = 32) -> TransformMap:
    """Solve the map conditions over ansatz dictionaries for mu1 and mu2.

    Affine targets take the evaluation-based least-squares path with the
    minimum-coefficient-norm gauge (or a pinned value mu(t0, x0) = (v1, v2)
    via `pin`); non-affine targets fall back to Gauss-Newton with restarts.
    The returned map is re-verified on fresh points and checked for
    monotone mu1.
    """
    params = dict(params or {})
    mu1_basis = tuple(mu1_basis)
    mu2_basis = tuple(mu2_basis)
    if not mu1_basis or not mu2_basis:
        raise TransformError("mu1 and mu2 need non-empty ansatz dictionaries")

    needed = set()
    for v, u in pairs:
        for e in (v.tau, v.phi, v.phitilde, u.tau, u.phi, u.phitilde):
            needed |= parameters_of(e)
    for e in (*mu1_basis, *mu2_basis):
        needed |= parameters_of(e)
    missing = sorted(needed - set(params))
    if missing:
        raise TransformError(f"parameters {missing} require numeric values")

    taken = set(params) | needed
    names1 = _fresh_names(len(mu1_basis), taken)
    names2 = _fresh_names(len(mu2_basis), taken | set(names1))
    mu1 = _linear_combo(names1, mu1_basis)
    mu2 = _linear_combo(names2, mu2_basis)
    unknowns = tuple(names1) + tuple(names2)
    system = transformation_system(pairs, mu1, mu2, unknowns=unknowns)

    points = sample_points(n_points, window, seed, params=params)
    fresh = sample_points(max(32, n_points // 2), window, seed + 1, params=params)

    def _to_map(vec) -> TransformMap:
        return TransformMap(
            _vec_to_expr(vec[: len(names1)], mu1_basis),
            _vec_to_expr(vec[len(names1):], mu2_basis))

    try:
        M, b = build_linear_system(system, points, params)
    except NonAffineError:
        coeffs = _solve_nonlinear(system, points, params, len(unknowns),
                                  seed, restarts,
                                  pin=pin, mu_bases=(mu1_basis, mu2_basis))
    else:
        coeffs, *_ = np.linalg.lstsq(M, -b, rcond=None)
        feas = float(np.max(np.abs(M @ coeffs + b)))
        scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        if feas > 1e-7 * scale:
            raise NoMapError(
                f"map conditions are infeasible with this ansatz "
                f"(best residual {feas:.3e})")
        if pin is not None:
            coeffs = _apply_pin(M, b, coeffs, pin, mu1_basis, mu2_basis, params)
        coeffs = _snap_coeffs(M, b, coeffs, max(feas, 1e-10 * scale))

    tmap = _to_map(coeffs)
    resid = _system_max_residual(pairs, tmap, fresh, params)
    if resid > verify_tol:
        raise NoMapError(
            f"candidate map fails re-verification: residual {resid:.3e}")
    if not _monotone_mu1(tmap.mu1, window, params):
        raise TransformError(
            "mu1 is not strictly increasing on the verification window")
    return tmap


def _snap_coeffs(M, b, coeffs, budget):
    """Round coefficients to nearby small rationals when still feasible."""
    from fractions import Fraction

    snapped = coeffs.copy()
    changed = False
    for i, v in enumerate(coeffs):
        frac = Fraction(float(v)).limit_denominator(4096)
        fv = float(frac)
        if fv != v and abs(fv - v) <= 1e-9 * max(1.0, abs(v)):
            snapped[i] = fv
            changed = True
    if not changed:
        return coeffs
    if float(np.max(np.abs(M @ snapped + b))) <= max(budget, 1e-12):
        return snapped
    return coeffs


def _pin_rows(pin, mu1_basis, mu2_basis, params):
    """Rows P and targets v with P @ coeffs = v pinning mu(t0, x0) = (v1, v2)."""
    t0, x0, v1, v2 = pin
    k = len(mu1_basis)
    vals = finite_points((*mu1_basis, *mu2_basis), [(t0, x0)], params)[0]
    P = np.zeros((2, vals.size))
    P[0, :k] = vals[:k]
    P[1, k:] = vals[k:]
    return P, np.array([v1, v2], dtype=float)


def _apply_pin(M, b, coeffs, pin, mu1_basis, mu2_basis, params):
    """Re-solve with rows pinning mu(t0, x0) = (v1, v2), then verify."""
    P, v = _pin_rows(pin, mu1_basis, mu2_basis, params)
    pinned, *_ = np.linalg.lstsq(np.vstack([M, P]), np.concatenate([-b, v]),
                                 rcond=None)
    feas = float(np.max(np.abs(M @ pinned + b)))
    if feas > 1e-7:
        return coeffs  # pin incompatible with the map conditions; keep gauge
    return pinned


def _solve_nonlinear(system, points, params, n_unknowns, seed, restarts,
                     pin=None, mu_bases=None):
    names = system.unknowns
    P, v = np.zeros((0, n_unknowns)), np.zeros(0)
    if pin is not None and mu_bases is not None:
        P, v = _pin_rows(pin, *mu_bases, params)
    pts = np.asarray(points, dtype=float)

    def residual_fn(c):
        grid = np.hstack([pts, np.tile(c, (len(pts), 1))])
        vals = evaluate_points(system.residuals, grid, params, names).ravel()
        return np.concatenate([np.where(np.isfinite(vals), vals, 1e6), P @ c - v])

    def fd_jacobian(c, h=1e-6):
        r = residual_fn(c)
        return np.column_stack([(residual_fn(c + h * e) - r) / h
                                for e in np.eye(c.size)])

    rng = np.random.default_rng(seed)
    best = None
    for k in range(restarts):
        x0 = np.zeros(n_unknowns) if k == 0 else rng.normal(0.0, 1.0, n_unknowns)
        x, _ = _gauss_newton(residual_fn, fd_jacobian, x0, max_iter=60)
        resid = float(np.max(np.abs(residual_fn(x))))
        if best is None or resid < best[0]:
            best = (resid, x)
    if best is None or best[0] > 1e-6:
        raise NoMapError(
            f"nonlinear solve found no map (best residual "
            f"{best[0] if best else math.inf:.3e})")
    return best[1]
