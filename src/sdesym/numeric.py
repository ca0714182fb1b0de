"""Monte-Carlo certification of symbolic results.

Simulates SDE path ensembles (Euler-Maruyama, counter-based Philox noise),
applies deterministic symmetry flows with the accompanying time change,
and statistically compares transformed ensembles against fresh simulations
with two-sample Kolmogorov-Smirnov tests at fixed checkpoints.

Stochastic generators (phitilde != 0) are certified by direct residual
evaluation of the determining system; flow-based simulation is offered for
deterministic generators only, since the driving noise of a stochastic
flow is not pinned down by the symbolic layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import ks_2samp

from .ansatz import DEFAULT_WINDOW, _max_abs, sample_points
from .determining import DeterminingSystem, Sde, VectorField
from .expr import compile_fn, diff, evaluate_points, simplify
from .transform import TransformMap

FRESH_SEED_OFFSET = 1_000_003
KS_P_THRESHOLD = 0.01
N_CHECKPOINTS = 4


class NumericError(ValueError):
    pass


class FlowError(NumericError):
    pass


# ---------------------------------------------------------------------------
# path simulation

@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths on a strictly increasing time grid.

    `increments` holds the Wiener increments that drove each step (retained
    so time-change transforms can be audited); `aborted` flags paths that
    hit a singularity or left the float range.
    """

    times: np.ndarray        # (K+1,)
    paths: np.ndarray        # (n_paths, K+1)
    increments: np.ndarray   # (n_paths, K)
    seed: int
    aborted: np.ndarray      # (n_paths,) bool

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    def final_states(self) -> np.ndarray:
        return self.paths[~self.aborted, -1]


def _simulate_on_grid(sde: Sde, x0: float, times: np.ndarray,
                      n_paths: int, seed: int) -> PathEnsemble:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise NumericError("time grid must be strictly increasing")
    K = times.size - 1
    params = sde.bound_params()
    f = compile_fn(sde.drift, ("t", "x"), params)
    g = compile_fn(sde.diffusion, ("t", "x"), params)
    # counter-based generator: the increment at (path, step) is a pure
    # function of (seed, path, step)
    rng = np.random.Generator(np.random.Philox(key=seed))
    normals = rng.standard_normal((n_paths, K))
    steps = np.diff(times)
    dW = normals * np.sqrt(steps)[None, :]
    X = np.empty((n_paths, K + 1))
    X[:, 0] = x0
    alive = np.ones(n_paths, dtype=bool)
    for k in range(K):
        xk = X[:, k]
        with np.errstate(all="ignore"):
            drift = np.broadcast_to(np.asarray(f(times[k], xk), dtype=float),
                                    xk.shape)
            diffu = np.broadcast_to(np.asarray(g(times[k], xk), dtype=float),
                                    xk.shape)
            nxt = xk + drift * steps[k] + diffu * dW[:, k]
        bad = ~np.isfinite(nxt)
        alive &= ~bad
        nxt = np.where(alive, nxt, np.nan)
        X[:, k + 1] = nxt
    return PathEnsemble(times, X, dW, seed, ~alive)


def euler_maruyama(sde: Sde, x0: float, h: float, K: int,
                   n_paths: int, seed: int) -> PathEnsemble:
    """Strong order-1/2 scheme X_{k+1} = X_k + f h + g dW on a uniform grid."""
    if h <= 0:
        raise NumericError("step size h must be positive")
    times = np.arange(K + 1, dtype=float) * h
    return _simulate_on_grid(sde, x0, times, n_paths, seed)


# ---------------------------------------------------------------------------
# residual certification

@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    passed: bool
    tol: float
    n_points: int
    per_residual: tuple  # max |residual_i| over the point set

    def to_kv(self) -> str:
        lines = [f"residual.max_abs = {self.max_abs:.6e}",
                 f"residual.tol = {self.tol:.1e}",
                 f"residual.n_points = {self.n_points}",
                 f"residual.pass = {str(self.passed).lower()}"]
        for i, m in enumerate(self.per_residual, start=1):
            lines.append(f"residual.{i}.max_abs = {m:.6e}")
        return "\n".join(lines)


def residual_check(ds: DeterminingSystem, params=None, n_points: int = 200,
                   window=DEFAULT_WINDOW, tol: float = 1e-8,
                   seed: int = 0) -> ResidualReport:
    """Evaluate every residual at quasi-random points; pass iff the largest
    magnitude stays below tol.  Points hitting domain errors are rejected
    and resampled up to a retry cap."""
    params = dict(params or {})
    points = sample_points(n_points, window, seed, reject=ds.residuals,
                           params=params)
    per = _max_abs(evaluate_points(ds.residuals, points, params), axis=0)
    worst = float(_max_abs(per))
    return ResidualReport(worst, worst < tol, tol, n_points,
                          tuple(float(m) for m in per))


# ---------------------------------------------------------------------------
# deterministic flows with time change

def _flow_integrate(v: VectorField, params, eps: float, n_sub: int,
                    times, states=None):
    """RK4 integration of the coupled flow system from r = 0 to eps:

        d(beta)/dr = tau(beta),  dJ/dr = tau_t(beta) * J,
        dF/dr = phi(beta, F)

    `times` is the array of initial beta values; `states` (optional) holds
    initial F values, broadcastable against `times` (e.g. paths of shape
    (n, K+1) over a grid of shape (K+1,)).  Returns (beta, J, F).
    """
    tau = compile_fn(v.tau, ("t",), params)
    tau_t = compile_fn(diff(v.tau, "t"), ("t",), params)
    phi = compile_fn(v.phi, ("t", "x"), params)
    beta = np.array(times, dtype=float, copy=True)
    J = np.ones_like(beta)
    F = None if states is None else np.array(states, dtype=float, copy=True)
    h = eps / n_sub

    def _a(val, like):
        return np.broadcast_to(np.asarray(val, dtype=float), like.shape)

    with np.errstate(all="ignore"):
        for _ in range(n_sub):
            k1b = _a(tau(beta), beta)
            k1j = _a(tau_t(beta), beta) * J
            b2 = beta + 0.5 * h * k1b
            k2b = _a(tau(b2), beta)
            k2j = _a(tau_t(b2), beta) * (J + 0.5 * h * k1j)
            b3 = beta + 0.5 * h * k2b
            k3b = _a(tau(b3), beta)
            k3j = _a(tau_t(b3), beta) * (J + 0.5 * h * k2j)
            b4 = beta + h * k3b
            k4b = _a(tau(b4), beta)
            k4j = _a(tau_t(b4), beta) * (J + h * k3j)
            if F is not None:
                k1f = _a(phi(beta, F), F)
                k2f = _a(phi(b2, F + 0.5 * h * k1f), F)
                k3f = _a(phi(b3, F + 0.5 * h * k2f), F)
                k4f = _a(phi(b4, F + h * k3f), F)
                F = F + (h / 6.0) * (k1f + 2 * k2f + 2 * k3f + k4f)
            beta = beta + (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
            J = J + (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
    return beta, J, F


@dataclass(frozen=True)
class FlowMap:
    """Flow of a deterministic generator at parameter eps.

    beta(t) is the new time, F(t, x) the new state, alpha the inverse of
    beta, and eta_sq = d(beta)/dt the squared time-change density (computed
    from the variational equation, not by differencing beta).
    """

    eps: float
    field: VectorField
    params: dict
    n_sub: int = 64

    def beta(self, t):
        return _flow_integrate(self.field, self.params, self.eps,
                               self.n_sub, np.asarray(t, dtype=float))[0]

    def eta_sq(self, t):
        return _flow_integrate(self.field, self.params, self.eps,
                               self.n_sub, np.asarray(t, dtype=float))[1]

    def F(self, t, x):
        tb, xb = np.broadcast_arrays(np.asarray(t, dtype=float),
                                     np.asarray(x, dtype=float))
        return _flow_integrate(self.field, self.params, self.eps,
                               self.n_sub, tb, xb)[2]

    def alpha(self, s, bracket_width: float = 16.0, tol: float = 1e-12):
        """Inverse of beta in t by bisection (beta is strictly increasing)."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s_arr)
        for i, sv in enumerate(s_arr):
            lo, hi = -bracket_width, bracket_width
            b_ends = self.beta(np.array([lo, hi]))
            if not (b_ends[0] < sv < b_ends[1]):
                raise FlowError(f"alpha: target time {sv} outside bracket")
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if float(self.beta(np.array([mid]))[0]) < sv:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < tol:
                    break
            out[i] = 0.5 * (lo + hi)
        return out if np.ndim(s) else float(out[0])


def flow_apply(ens: PathEnsemble, v: VectorField, eps: float,
               params=None, n_sub: int = 64):
    """Transport an ensemble along the flow of a deterministic generator.

    Integrates d(beta)/dr = tau(beta), dF/dr = phi(beta, F) from r = 0 to
    eps (RK4 with `n_sub` substeps plus a step-halving convergence check on
    a path subsample) and returns (FlowMap, transformed ensemble) on the
    image time grid beta(t_k).
    """
    if v.has_stochastic_part():
        raise FlowError("flow_apply handles deterministic generators only "
                        "(phitilde must vanish)")
    if not v.time_only_tau():
        raise FlowError("tau must depend on t only")
    params = dict(params or {})
    beta, J, newX = _flow_integrate(v, params, eps, n_sub,
                                    ens.times, ens.paths)
    # step-halving convergence check on the grid and a path subsample
    sub = ens.paths[: min(8, ens.n_paths)]
    beta2, _, sub2 = _flow_integrate(v, params, eps, 2 * n_sub, ens.times, sub)
    with np.errstate(invalid="ignore"):
        diffs = np.abs(sub2 - newX[: sub.shape[0]])
        conv = float(np.max(np.abs(beta - beta2)))
        finite = np.isfinite(diffs)
        if np.any(finite):
            conv = max(conv, float(np.max(diffs[finite])))
    if conv > 1e-8:
        raise FlowError(
            f"flow integration did not converge (step-halving difference {conv:.3e})")
    if np.any(J <= 0.0) or np.any(np.diff(beta) <= 0.0):
        raise FlowError("time change lost monotonicity at this eps")
    aborted = ens.aborted | ~np.all(np.isfinite(newX), axis=1)
    newX = np.where(aborted[:, None], np.nan, newX)
    out = PathEnsemble(beta, newX, ens.increments, ens.seed, aborted)
    fm = FlowMap(eps, v, params, n_sub=n_sub)
    return fm, out


# ---------------------------------------------------------------------------
# KS-based verification

@dataclass(frozen=True)
class Checkpoint:
    time: float
    statistic: float
    p_value: float
    n1: int
    n2: int


@dataclass(frozen=True)
class KSReport:
    checkpoints: tuple
    passed: bool
    seed: int
    fresh_seed: int
    n_paths: int
    aborted: int
    p_threshold: float = KS_P_THRESHOLD

    def to_kv(self) -> str:
        lines = []
        for i, cp in enumerate(self.checkpoints, start=1):
            lines.append(f"checkpoint.{i}.time = {cp.time:.6g}")
            lines.append(f"checkpoint.{i}.ks_stat = {cp.statistic:.6g}")
            lines.append(f"checkpoint.{i}.p_value = {cp.p_value:.6g}")
            lines.append(f"checkpoint.{i}.n1 = {cp.n1}")
            lines.append(f"checkpoint.{i}.n2 = {cp.n2}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"fresh_seed = {self.fresh_seed}")
        lines.append(f"n_paths = {self.n_paths}")
        lines.append(f"aborted_paths = {self.aborted}")
        lines.append(f"p_threshold = {self.p_threshold}")
        lines.append(f"pass = {str(self.passed).lower()}")
        return "\n".join(lines)


def ks_two_sample(a: np.ndarray, b: np.ndarray):
    """Two-sample KS statistic and asymptotic p-value."""
    res = ks_2samp(a, b, method="asymp")
    return float(res.statistic), float(res.pvalue)


def _checkpoint_indices(K: int, n: int = N_CHECKPOINTS):
    idx = sorted({max(1, round(K * (j + 1) / n)) for j in range(n)})
    return idx


def _compare_ensembles(ens_a: PathEnsemble, ens_b: PathEnsemble,
                       p_threshold: float) -> KSReport:
    keep_a = ~ens_a.aborted
    keep_b = ~ens_b.aborted
    cps = []
    ok = True
    for k in _checkpoint_indices(ens_a.n_steps):
        xa = ens_a.paths[keep_a, k]
        xb = ens_b.paths[keep_b, k]
        stat, p = ks_two_sample(xa, xb)
        cps.append(Checkpoint(float(ens_a.times[k]), stat, p, xa.size, xb.size))
        ok &= p > p_threshold
    return KSReport(tuple(cps), ok, ens_a.seed, ens_b.seed, ens_a.n_paths,
                    int(ens_a.aborted.sum() + ens_b.aborted.sum()),
                    p_threshold)


def verify_symmetry(sde: Sde, v: VectorField, eps: float, *,
                    x0: float = 1.0, h: float = 1e-3, K: int = 1000,
                    n_paths: int = 2000, seed: int = 0,
                    p_threshold: float = KS_P_THRESHOLD) -> KSReport:
    """Distributional check that the flow of v maps solutions to solutions.

    Simulates the SDE, transports the ensemble along the flow of v, and
    compares its marginals (4 checkpoints, two-sample KS) against a fresh
    ensemble of the same SDE started at the transformed initial state on
    the image time grid.
    """
    ens = euler_maruyama(sde, x0, h, K, n_paths, seed)
    fm, moved = flow_apply(ens, v, eps, params=sde.bound_params())
    y0 = float(fm.F(ens.times[0], x0))
    fresh = _simulate_on_grid(sde, y0, moved.times, n_paths,
                              seed + FRESH_SEED_OFFSET)
    return _compare_ensembles(moved, fresh, p_threshold)


def verify_map(src: Sde, tgt: Sde, tmap: TransformMap, *,
               x0: float = 1.0, h: float = 1e-3, K: int = 1000,
               n_paths: int = 2000, seed: int = 0,
               p_threshold: float = KS_P_THRESHOLD) -> KSReport:
    """Distributional check that mu maps src solutions to tgt solutions.

    Source paths X(t_k) become Y_k = mu2(t_k, X(t_k)) at times s_k =
    mu1(t_k); a fresh target ensemble is simulated on {s_k} from mu2(0, x0)
    and the marginals are compared at 4 checkpoints by two-sample KS.
    """
    if not tmap.time_only():
        raise NumericError("mu1 must depend on t only for numeric verification")
    params = {**src.bound_params(), **tgt.bound_params()}
    mu1 = compile_fn(simplify(tmap.mu1), ("t",), params)
    dmu1 = compile_fn(diff(tmap.mu1, "t"), ("t",), params)
    ens = euler_maruyama(src, x0, h, K, n_paths, seed)
    slope = np.asarray(dmu1(ens.times), dtype=float)
    if np.any(~np.isfinite(slope)) or np.any(slope <= 0.0):
        raise NumericError("mu1 is not strictly increasing on the window")
    s_times = np.asarray(mu1(ens.times), dtype=float)
    mu2 = compile_fn(simplify(tmap.mu2), ("t", "x"), params)
    t_mat = np.broadcast_to(ens.times, ens.paths.shape)
    with np.errstate(all="ignore"):
        Y = np.asarray(mu2(t_mat, ens.paths), dtype=float)
    aborted = ens.aborted | ~np.all(np.isfinite(Y), axis=1)
    moved = PathEnsemble(s_times, np.where(aborted[:, None], np.nan, Y),
                         ens.increments, ens.seed, aborted)
    y0 = float(np.asarray(mu2(ens.times[0], x0), dtype=float))
    fresh = _simulate_on_grid(tgt, y0, s_times, n_paths,
                              seed + FRESH_SEED_OFFSET)
    return _compare_ensembles(moved, fresh, p_threshold)
