"""Lie-algebra layer over deterministic generator parts.

Brackets use the standard convention [v, w] = v(w) - w(v) for fields acting
as tau*d/dt + phi*d/dx.  Structure constants are extracted by least squares
on an evaluation grid.  `match_basis` finds a change of basis A with
X~_i = sum_j A[i][j] X_j whose commutator table reproduces a target table.

The matched A is unique only up to row rescalings that preserve the
commutation relations; the returned matrix is normalized deterministically:
gauge-free rows are scaled so their largest-magnitude entry equals +1, and
free entries are pruned to exact zeros when the equations allow.  Published
hand solutions may therefore differ from the returned one by such row signs
and scales (the products of paired entries are invariant and comparable).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .determining import VectorField
from .expr import ZERO, add, diff, finite_points, mul, simplify

MATCH_TOL = 1e-8
CLOSURE_TOL = 1e-8


class LieError(ValueError):
    pass


class ClosureError(LieError):
    def __init__(self, i: int, j: int, resid: float):
        super().__init__(
            f"basis is not closed under bracket: [X{i+1}, X{j+1}] leaves the "
            f"span with residual {resid:.3e}")
        self.pair = (i, j)
        self.resid = resid


@dataclass(frozen=True)
class StructureConstants:
    """Tensor c with [X_i, X_j] = sum_k c[k][i][j] X_k (c antisymmetric in i, j)."""

    c: np.ndarray
    n: int

    def entry(self, k: int, i: int, j: int) -> float:
        return float(self.c[k, i, j])

    def jacobi_violation(self) -> float:
        c = self.c
        v = (np.einsum("rij,srk->sijk", c, c)
             + np.einsum("rjk,sri->sijk", c, c)
             + np.einsum("rki,srj->sijk", c, c))
        return float(np.max(np.abs(v)))

    def antisymmetry_violation(self) -> float:
        return float(np.max(np.abs(self.c + np.transpose(self.c, (0, 2, 1)))))


@dataclass(frozen=True)
class BasisMatch:
    """Change of basis X~_i = sum_j A[i][j] X_j matching a target table."""

    A: np.ndarray
    residual: float
    matched: bool
    n_zeros: int = 0


def _act(v: VectorField, h) -> "object":
    """Apply the first-order operator tau*d/dt + phi*d/dx to h(t, x)."""
    return add(mul(v.tau, diff(h, "t")), mul(v.phi, diff(h, "x")))


def bracket(v: VectorField, w: VectorField) -> VectorField:
    """Commutator [v, w] of two deterministic generators."""
    if v.has_stochastic_part() or w.has_stochastic_part():
        raise LieError("bracket is defined on deterministic parts only "
                       "(phitilde must vanish)")
    tau = simplify(add(_act(v, w.tau), mul(-1, _act(w, v.tau))))
    phi = simplify(add(_act(v, w.phi), mul(-1, _act(w, v.phi))))
    return VectorField(tau, phi, ZERO)


def _features(fields, points, params) -> np.ndarray:
    """Stack (tau, phi) values over the grid: one column per field."""
    exprs = [e for v in fields for e in (v.tau, v.phi)]
    F = finite_points(exprs, points, params).reshape(len(points), len(fields), 2)
    return F.transpose(0, 2, 1).reshape(2 * len(points), len(fields))


def structure_constants(basis, points, params=None,
                        tol: float = CLOSURE_TOL) -> StructureConstants:
    """Least-squares extraction of the commutator table on a grid.

    Antisymmetry is enforced by averaging the (i, j) and (j, i) solves.
    Raises ClosureError when a bracket is not expressible in the basis.
    """
    params = dict(params or {})
    basis = list(basis)
    n = len(basis)
    Phi = _features(basis, points, params)
    scale = max(1.0, float(np.max(np.abs(Phi))))
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = np.zeros((2, n))
            for which, (a, b) in enumerate(((i, j), (j, i))):
                br = bracket(basis[a], basis[b])
                y = _features([br], points, params)[:, 0]
                coef, *_ = np.linalg.lstsq(Phi, y, rcond=None)
                resid = float(np.max(np.abs(Phi @ coef - y)))
                if resid > tol * max(scale, float(np.max(np.abs(y), initial=0.0))):
                    raise ClosureError(a, b, resid)
                d[which] = coef
            avg = (d[0] - d[1]) / 2.0
            c[:, i, j] = avg
            c[:, j, i] = -avg
    c[np.abs(c) < 1e-12] = 0.0
    return StructureConstants(c, n)


def apply_match(A: np.ndarray, fields) -> list:
    """Build the transformed generators X~_i = sum_j A[i][j] X_j symbolically."""
    from .ansatz import _coeff_const  # local import to avoid a cycle

    out = []
    for i in range(A.shape[0]):
        tau_terms, phi_terms = [], []
        for j, v in enumerate(fields):
            a = float(A[i, j])
            if a == 0.0:
                continue
            coeff = _coeff_const(a)
            tau_terms.append(mul(coeff, v.tau))
            phi_terms.append(mul(coeff, v.phi))
        out.append(VectorField(simplify(add(*tau_terms)) if tau_terms else ZERO,
                               simplify(add(*phi_terms)) if phi_terms else ZERO,
                               ZERO))
    return out


# ---------------------------------------------------------------------------
# Gauss-Newton matching

@functools.lru_cache(maxsize=16)
def _upper_pairs(n: int):
    """Index arrays (i, j) of the pairs i < j, read-only and shared."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _match_residual(A: np.ndarray, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Residual entries R[r, i, j] = (c of transformed basis) - (target),
    flattened over i < j."""
    R = np.einsum("ip,jq,rpq->rij", A, A, S) - np.einsum("kij,kr->rij", T, A)
    i, j = _upper_pairs(A.shape[0])
    return R[:, i, j].T.ravel()


def _match_jacobian(A: np.ndarray, S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """d(_match_residual)/d(A[a, b]), rows in residual order."""
    n = A.shape[0]
    eye = np.eye(n)
    P1 = np.einsum("jq,rbq->rjb", A, S)   # sum_q A[j,q] S[r,b,q]
    P2 = np.einsum("ip,rpb->rib", A, S)   # sum_p A[i,p] S[r,p,b]
    J = (np.einsum("ai,rjb->ijrab", eye, P1) + np.einsum("aj,rib->ijrab", eye, P2)
         - np.einsum("br,aij->ijrab", eye, T))
    i, j = _upper_pairs(n)
    return J[i, j].reshape(-1, n * n)


def _gauss_newton(residual, jacobian, x0, max_iter: int):
    """Levenberg-damped Gauss-Newton least squares from x0.

    `residual(x)` returns the residual vector and `jacobian(x)` its
    derivative matrix.  Returns (x, |residual(x)|).
    """
    x = np.array(x0, dtype=float)
    lam = 1e-8
    r = residual(x)
    cost = float(np.sum(r ** 2))
    for _ in range(max_iter):
        if cost < 1e-26:
            break
        J = jacobian(x)
        g = J.T @ r
        H = J.T @ J
        for _ in range(12):
            try:
                step = np.linalg.solve(H + lam * np.eye(x.size), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            r_new = residual(x + step)
            new_cost = float(np.sum(r_new ** 2))
            if new_cost < cost:
                x, r, cost = x + step, r_new, new_cost
                lam = max(lam / 3, 1e-12)
                break
            lam *= 10
        else:
            break
    return x, math.sqrt(cost)


def _gauss_newton_match(A0, S, T, mask=None, max_iter=80):
    """Gauss-Newton on the entries of A not set in `mask` (which stay fixed)."""
    n = A0.shape[0]
    # a slice keeps the Jacobian C-ordered, which the BLAS products below
    # round differently from the F-ordered copy a boolean mask returns
    free = slice(None) if mask is None else ~mask.ravel()
    flat = A0.ravel().copy()

    def unpack(z):
        A = flat.copy()
        A[free] = z
        return A.reshape(n, n)

    z, resid = _gauss_newton(
        lambda z: _match_residual(unpack(z), S, T),
        lambda z: _match_jacobian(unpack(z), S, T)[:, free],
        flat[free], max_iter)
    return unpack(z), resid


def _restart_pool(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    vals = {0.0, 1.0, -1.0, 2.0, -2.0}
    mags = {abs(float(v)) for v in np.concatenate([S.ravel(), T.ravel()])}
    for m in sorted(mags):
        if m > 1e-9:
            vals.update((m, -m, 1.0 / m, -1.0 / m))
    return np.array(sorted(vals))


def _sparsify(A, S, T, tol):
    """Greedily zero small entries, re-polishing the rest, while the match
    residual stays below tol and A stays invertible."""
    n = A.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    order = sorted(((abs(A[i, j]), i, j) for i in range(n) for j in range(n)),
                   key=lambda t: t[0])
    for _, i, j in order:
        if mask[i, j]:
            continue
        trial_mask = mask.copy()
        trial_mask[i, j] = True
        trial = A.copy()
        trial[i, j] = 0.0
        trial, resid = _gauss_newton_match(trial, S, T, trial_mask, max_iter=40)
        trial[trial_mask] = 0.0
        if resid < tol and abs(np.linalg.det(trial)) > 1e-9:
            A, mask = trial, trial_mask
    return A


def _normalize_rows(A, S, T, tol):
    """Scale gauge-free rows so their largest-magnitude entry is +1."""
    for i in range(A.shape[0]):
        row = A[i]
        k = int(np.argmax(np.abs(row)))
        pivot = row[k]
        if pivot == 0.0 or abs(pivot - 1.0) < 1e-12:
            continue
        trial = A.copy()
        trial[i] = row / pivot
        resid = float(np.max(np.abs(_match_residual(trial, S, T))))
        if resid < tol and abs(np.linalg.det(trial)) > 1e-9:
            A = trial
    return A


def _snap_rational(A, S, T, tol):
    """Round entries to nearby small rationals when the residual allows."""
    from fractions import Fraction

    trial = A.copy()
    changed = False
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            v = A[i, j]
            if v == 0.0:
                continue
            frac = Fraction(v).limit_denominator(64)
            fv = float(frac)
            if fv != v and abs(fv - v) <= 1e-6 * max(1.0, abs(v)):
                trial[i, j] = fv
                changed = True
    if not changed:
        return A
    resid = float(np.max(np.abs(_match_residual(trial, S, T))))
    if resid < tol and abs(np.linalg.det(trial)) > 1e-9:
        return trial
    return A


def match_basis(src: StructureConstants, tgt: StructureConstants,
                seed: int = 0, restarts: int = 64,
                tol: float = MATCH_TOL) -> BasisMatch:
    """Find A with the transformed commutator table equal to the target's.

    Gauss-Newton from `restarts` starts (the identity, then structured
    random matrices with entries from {0, +-1, +-2, +-c, +-1/c} jittered).
    Among starts reaching residual < tol the sparsest result wins.  A
    no-match outcome (possibly non-isomorphic algebras) is reported via
    `matched=False`, not an exception.
    """
    if src.n != tgt.n:
        return BasisMatch(np.eye(max(src.n, tgt.n)), math.inf, False)
    n = src.n
    S, T = src.c, tgt.c
    rng = np.random.default_rng(seed)
    pool = _restart_pool(S, T)

    best = None  # (n_nonzeros, restart_index, A, residual)
    for k in range(restarts):
        if k == 0:
            A0 = np.eye(n)
        else:
            A0 = rng.choice(pool, size=(n, n)) + rng.normal(0.0, 0.05, size=(n, n))
        A, _ = _gauss_newton_match(A0, S, T)
        resid = float(np.max(np.abs(_match_residual(A, S, T))))
        if resid >= tol or abs(np.linalg.det(A)) <= 1e-9:
            continue
        A = _sparsify(A, S, T, tol)
        A = _normalize_rows(A, S, T, tol)
        A[np.abs(A) < 1e-7] = 0.0
        A = _snap_rational(A, S, T, tol)
        resid = float(np.max(np.abs(_match_residual(A, S, T))))
        if resid >= tol:
            continue
        nnz = int(np.count_nonzero(A))
        cand = (nnz, k, A, resid)
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:
        return BasisMatch(np.eye(n), math.inf, False)
    _, _, A, resid = best
    return BasisMatch(A, resid, True, n_zeros=n * n - int(np.count_nonzero(A)))
