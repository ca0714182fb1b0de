"""Transformation maps between SDEs from matched symmetry pairs.

Each pair (source generator v, target generator u) contributes four
residual rows tying the unknown map mu = (mu1(t,x), mu2(t,x)) to the pair,
Ito's formula for mu along v against u at mu:

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

from dataclasses import dataclass

import numpy as np

from .ansatz import (
    DEFAULT_WINDOW,
    VERIFY_TOL,
    NonAffineError,
    _fresh_names,
    _linear_combo,
    _max_abs,
    _snap_small_rationals,
    _vec_to_expr,
    build_linear_system,
    sample_points,
)
from .determining import DeterminingSystem, VectorField, _derivatives, _ito_terms
from .expr import (
    Expr,
    add,
    diff,
    evaluate_points,
    finite_points,
    mul,
    negate,
    parameters_of,
    simplify,
    substitute,
    var,
    variables_of,
)
from .lie import _gauss_newton


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

    @classmethod
    def from_tx(cls, pairs) -> "PairedSymmetries":
        """Build from target fields written in (t, x); relabels them to (s, y)."""
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
    """Residual rows of the map conditions for every pair: the target's
    coefficients at mu against Ito's formula for mu along the source field."""
    comp = {"s": mu1, "y": mu2}
    second = any(not v.phitilde.is_zero() for v, _ in pairs)
    dmu1, dmu2 = _derivatives(mu1, second), _derivatives(mu2, second)
    residuals = []
    for v, u in pairs:
        rho, psi, psit = (substitute(e, comp) for e in (u.tau, u.phi, u.phitilde))
        residuals += [
            add(rho, *map(negate, _ito_terms(dmu1, v.tau, v.phi, v.phitilde))),
            mul(dmu1[1], v.phitilde),
            add(psi, *map(negate, _ito_terms(dmu2, v.tau, v.phi, v.phitilde))),
            add(psit, negate(mul(dmu2[1], v.phitilde)))]
    return DeterminingSystem(tuple(map(simplify, residuals)), unknowns=tuple(unknowns))


def _system_max_residual(pairs, tmap: TransformMap, points, params) -> float:
    system = transformation_system(pairs, tmap.mu1, tmap.mu2)
    return float(_max_abs(evaluate_points(system.residuals, points, params)))


def _monotone_mu1(mu1: Expr, window, params) -> bool:
    t0, t1 = window[0], window[1]
    xm = 0.5 * (window[2] + window[3])
    grid = [(t0 + (t1 - t0) * i / 63, xm) for i in range(64)]
    return bool(np.all(evaluate_points([diff(mu1, "t")], grid, params) > 0.0))


def solve_map(pairs: PairedSymmetries, mu1_basis, mu2_basis, *,
              params=None, window=DEFAULT_WINDOW, n_points: int = 64,
              seed: int = 2026, pin=None) -> TransformMap:
    """Solve the map conditions over ansatz dictionaries for mu1 and mu2.

    Affine targets take the evaluation-based least-squares path with the
    minimum-coefficient-norm gauge (or a pinned value mu(t0, x0) = (v1, v2)
    via `pin`); non-affine targets fall back to Gauss-Newton from 32
    starts.  The returned map is re-verified on fresh
    points (max |residual| <= VERIFY_TOL) and checked for monotone mu1 and
    for mu2_x of one sign (an x-invertible mu2) at those points.
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
        coeffs = _solve_nonlinear(system, points, params, seed, pin,
                                  (mu1_basis, mu2_basis))
    else:
        coeffs, *_ = np.linalg.lstsq(M, -b, rcond=None)
        feas = float(np.max(np.abs(M @ coeffs + b)))
        scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        if feas > 1e-7 * scale:
            raise NoMapError(
                f"map conditions are infeasible with this ansatz "
                f"(best residual {feas:.3e})")
        if pin is not None:
            coeffs = _apply_pin(M, b, pin, mu1_basis, mu2_basis, params)
        coeffs = _snap_small_rationals(coeffs, 4096, 1e-9, lambda c: float(
            np.max(np.abs(M @ c + b))) <= max(feas, 1e-10 * scale, 1e-12))

    tmap = _to_map(coeffs)
    resid = _system_max_residual(pairs, tmap, fresh, params)
    if resid > VERIFY_TOL:
        raise NoMapError(
            f"candidate map fails re-verification: residual {resid:.3e}")
    if not _monotone_mu1(tmap.mu1, window, params):
        raise TransformError(
            "mu1 is not strictly increasing on the verification window")
    mu2_x = evaluate_points([diff(tmap.mu2, "x")], fresh, params)
    if not (np.all(mu2_x > 0.0) or np.all(mu2_x < 0.0)):
        raise TransformError("mu2 is not invertible in x: mu2_x is zero or "
                             "changes sign at the verification points")
    return tmap


def _pin_rows(pin, mu1_basis, mu2_basis, params):
    """Rows P and targets v with P @ coeffs = v pinning mu(t0, x0) = (v1, v2)."""
    t0, x0, v1, v2 = pin
    k = len(mu1_basis)
    vals = finite_points((*mu1_basis, *mu2_basis), [(t0, x0)], params)[0]
    P = np.zeros((2, vals.size))
    P[0, :k] = vals[:k]
    P[1, k:] = vals[k:]
    return P, np.array([v1, v2], dtype=float)


def _apply_pin(M, b, pin, mu1_basis, mu2_basis, params):
    """Re-solve with rows pinning mu(t0, x0) = (v1, v2); refuse a pin that
    the map conditions do not allow."""
    P, v = _pin_rows(pin, mu1_basis, mu2_basis, params)
    pinned, *_ = np.linalg.lstsq(np.vstack([M, P]), np.concatenate([-b, v]),
                                 rcond=None)
    feas = float(np.max(np.abs(M @ pinned + b)))
    if feas > 1e-7:
        t0, x0, v1, v2 = pin
        raise NoMapError(
            f"pin mu({t0:g}, {x0:g}) = ({v1:g}, {v2:g}) is incompatible with "
            f"the map conditions (residual {feas:.3e})")
    return pinned


def _solve_nonlinear(system, points, params, seed, pin, mu_bases):
    names = system.unknowns
    n_unknowns = len(names)
    P, v = np.zeros((0, n_unknowns)), np.zeros(0)
    if pin is not None:
        P, v = _pin_rows(pin, *mu_bases, params)
    pts = np.asarray(points, dtype=float)

    def residual_fn(c):
        grid = np.hstack([pts, np.tile(c, (len(pts), 1))])
        vals = evaluate_points(system.residuals, grid, params, names).ravel()
        return np.concatenate([np.where(np.isfinite(vals), vals, 1e6), P @ c - v])

    def fd_jacobian(c):
        r = residual_fn(c)
        return np.column_stack([(residual_fn(c + 1e-6 * e) - r) / 1e-6
                                for e in np.eye(c.size)])

    rng = np.random.default_rng(seed)
    best = None
    for k in range(32):
        x0 = np.zeros(n_unknowns) if k == 0 else rng.normal(0.0, 1.0, n_unknowns)
        x, _ = _gauss_newton(residual_fn, fd_jacobian, x0, max_iter=60)
        resid = float(np.max(np.abs(residual_fn(x))))
        if best is None or resid < best[0]:
            best = (resid, x)
    if best[0] > 1e-6:
        raise NoMapError(
            f"nonlinear solve found no map (best residual {best[0]:.3e})")
    return best[1]
