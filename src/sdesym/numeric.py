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

import math
from dataclasses import dataclass

import numpy as np

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
    hit a singularity or left the float range.  Simulated ensembles store
    their states step-major, so `paths` and `increments` are transposed
    views of contiguous (K+1, n_paths) and (K, n_paths) arrays.
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
    if (times.ndim != 1 or times.size < 2 or not np.all(np.isfinite(times))
            or np.any(np.diff(times) <= 0)):
        raise NumericError("time grid must be finite and strictly increasing")
    K = times.size - 1
    params = sde.bound_params()
    f = compile_fn(sde.drift, ("t", "x"), params)
    g = compile_fn(sde.diffusion, ("t", "x"), params)
    # one (n_paths, K) draw in row-major order: path i's increments depend
    # on (seed, i, K) and do not change with n_paths
    rng = np.random.Generator(np.random.Philox(key=seed))
    normals = rng.standard_normal((n_paths, K))
    steps = np.diff(times)
    # step-major storage: row k holds every path at times[k], so each step
    # reads and writes contiguous memory
    dW = np.empty((K, n_paths))
    np.multiply(normals.T, np.sqrt(steps)[:, None], out=dW)
    del normals
    X = np.empty((K + 1, n_paths))
    X[0] = x0
    aborted = np.zeros(n_paths, dtype=bool)
    tmp = np.empty(n_paths)
    with np.errstate(all="ignore"):
        for k in range(K):
            xk, nxt = X[k], X[k + 1]
            # X_{k+1} = (X_k + f h) + g dW, summed in this order
            np.multiply(f(times[k], xk), steps[k], out=tmp)
            np.add(xk, tmp, out=nxt)
            np.multiply(g(times[k], xk), dW[k], out=tmp)
            np.add(nxt, tmp, out=nxt)
            aborted |= ~np.isfinite(nxt)
            nxt[aborted] = np.nan
    return PathEnsemble(times, X.T, dW.T, seed, aborted)


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

# cells of F per block in _transport: the block's RK4 buffers stay in cache
_FLOW_BLOCK_CELLS = 32_768


def _flow_integrate(v: VectorField, params, eps: float, n_sub: int,
                    times, states=None):
    """RK4 integration of the coupled flow system from r = 0 to eps:

        d(beta)/dr = tau(beta),  dJ/dr = tau_t(beta) * J,
        dF/dr = phi(beta, F)

    `times` is the array of initial beta values; `states` (optional) holds
    initial F values, broadcastable against `times` (e.g. paths of shape
    (n, K+1) over a grid of shape (K+1,)).  Returns (beta, J, F).

    Since tau depends on t only, (beta, J) are integrated once on `times`
    and each substep's stage times are kept; F is then integrated block by
    block (`_transport`).  Every value is bit-identical to one RK4 loop
    over the whole arrays.
    """
    tau = compile_fn(v.tau, ("t",), params)
    tau_t = compile_fn(diff(v.tau, "t"), ("t",), params)
    beta = np.array(times, dtype=float, copy=True)
    J = np.ones_like(beta)
    h = eps / n_sub
    stages = []

    def _a(val):
        return np.broadcast_to(np.asarray(val, dtype=float), beta.shape)

    with np.errstate(all="ignore"):
        for _ in range(n_sub):
            k1b = _a(tau(beta))
            k1j = _a(tau_t(beta)) * J
            b2 = beta + 0.5 * h * k1b
            k2b = _a(tau(b2))
            k2j = _a(tau_t(b2)) * (J + 0.5 * h * k1j)
            b3 = beta + 0.5 * h * k2b
            k3b = _a(tau(b3))
            k3j = _a(tau_t(b3)) * (J + 0.5 * h * k2j)
            b4 = beta + h * k3b
            k4b = _a(tau(b4))
            k4j = _a(tau_t(b4)) * (J + h * k3j)
            stages.append((beta, b2, b3, b4))
            beta = beta + (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
            J = J + (h / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
    if states is None:
        return beta, J, None
    F = np.array(states, dtype=float, copy=True)
    phi = compile_fn(v.phi, ("t", "x"), params)
    _transport(phi, h, stages, F)
    return beta, J, F


def _transport(phi, h: float, stages, F: np.ndarray) -> None:
    """dF/dr = phi(beta, F) by RK4 over the given stage times, in place.

    Cells are independent, so F is split along its slowest-varying axis into
    blocks of about _FLOW_BLOCK_CELLS cells, each taken through every
    substep with preallocated buffers.  Per cell the roundings are those of
    F + (h/6) (((k1 + 2 k2) + 2 k3) + k4) with k2 = phi(b2, F + (h/2) k1)
    etc.; a sum may take its operands in swapped order (IEEE addition
    commutes), so that most passes update a buffer in place and stream two
    arrays rather than three.  phi may return its argument or a scalar.
    """
    if F.ndim == 0:
        F = F.reshape(1)
    # pad stage times to F's rank; walk memory order (step-major ensembles
    # store paths transposed, so their rows are grid times)
    pad = (1,) * (F.ndim - np.ndim(stages[0][0]))
    stages = [[np.reshape(s, pad + np.shape(s)) for s in st] for st in stages]
    if not F.flags.c_contiguous and F.flags.f_contiguous:
        F = F.T
        stages = [[s.T for s in st] for st in stages]
    rows = max(1, _FLOW_BLOCK_CELLS * F.shape[0] // max(F.size, 1))
    c_half, c_sixth = 0.5 * h, h / 6.0
    with np.errstate(all="ignore"):
        for lo in range(0, F.shape[0], rows):
            Fb = F[lo:lo + rows]
            arg, acc, tmp = (np.empty_like(Fb) for _ in range(3))
            for st in stages:
                b1, b2, b3, b4 = (s[lo:lo + rows] if s.shape[0] > 1 else s
                                  for s in st)
                k1 = phi(b1, Fb)             # Fb itself if phi = x
                np.multiply(k1, c_half, out=arg)
                np.add(arg, Fb, out=arg)
                k = phi(b2, arg)             # arg itself if phi = x
                np.multiply(k, 2, out=acc)
                np.add(acc, k1, out=acc)
                np.multiply(k, c_half, out=arg)
                np.add(arg, Fb, out=arg)
                k = phi(b3, arg)
                np.multiply(k, 2, out=tmp)
                np.add(acc, tmp, out=acc)
                np.multiply(k, h, out=arg)
                np.add(arg, Fb, out=arg)
                np.add(acc, phi(b4, arg), out=acc)
                np.multiply(acc, c_sixth, out=acc)
                np.add(Fb, acc, out=Fb)


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
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(J))):
        raise FlowError("time change is not finite at this eps")
    # step-halving convergence check on the grid and a path subsample
    sub = ens.paths[: min(8, ens.n_paths)]
    beta2, _, sub2 = _flow_integrate(v, params, eps, 2 * n_sub, ens.times, sub)
    with np.errstate(invalid="ignore"):
        diffs = np.abs(sub2 - newX[: sub.shape[0]])
    # aborted or blown-up paths are dropped below, not held against the flow
    conv = max(float(_max_abs(beta - beta2)),
               float(np.max(diffs[np.isfinite(diffs)], initial=0.0)))
    if conv > 1e-8:
        raise FlowError(
            f"flow integration did not converge (step-halving difference {conv:.3e})")
    if np.any(J <= 0.0) or np.any(np.diff(beta) <= 0.0):
        raise FlowError("time change lost monotonicity at this eps")
    aborted = ens.aborted | ~np.all(np.isfinite(newX), axis=1)
    newX[aborted] = np.nan
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


def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1.0) for i in range(n + 1)])


def _smirnov_sf(n: int, d: float) -> float:
    """P(D+_n >= d), the exact one-sided tail: the Birnbaum-Tingey sum
    d * sum_j C(n, j) (d + j/n)^(j-1) (1 - d - j/n)^(n-j), added in logs."""
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    rest = 1.0 - d - j / n
    j, rest = j[rest > 0], rest[rest > 0]
    lf = _log_factorials(n)
    log_terms = (lf[n] - lf[j] - lf[n - j] + math.log(d)
                 + (j - 1) * np.log(d + j / n) + (n - j) * np.log(rest))
    top = log_terms.max()
    return math.exp(top) * float(np.exp(log_terms - top).sum())


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) exactly, from Durbin's matrix (Marsaglia, Tsang & Wang
    2003, J. Stat. Softw. 8(18)): n!/n^n (H^n)[k-1, k-1] with k = ceil(n d),
    H^n by repeated squaring and its log scale kept apart."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.exp(-_log_factorials(m))
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1
    H = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    edge = 1.0 - h ** np.arange(1, m + 1)
    H[:, 0] *= edge
    H[-1, :] *= edge[::-1]
    H[-1, 0] = (1.0 - 2.0 * h**m + max(0.0, 2.0 * h - 1.0) ** m) * inv_fact[m]
    power, log_power, log_h = np.eye(m), 0.0, 0.0
    e = n
    while True:
        if e & 1:
            power = power @ H
            scale = power.max()
            power /= scale
            log_power += log_h + math.log(scale)
        e >>= 1
        if not e:
            break
        H = H @ H
        scale = H.max()
        H /= scale
        log_h = 2.0 * log_h + math.log(scale)
    return power[k - 1, k - 1] * math.exp(
        log_power + math.lgamma(n + 1.0) - n * math.log(n))


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n > d) for the two-sided one-sample KS statistic D_n."""
    if d >= 1.0:
        return 0.0
    if n * d <= 0.5:     # D_n >= 1/(2n) always
        return 1.0
    if d >= 0.5 or n * d * d >= 2.2:
        # twice the one-sided tail: exact for d >= 1/2, and otherwise high
        # by the overlap of the two tails, about 2 exp(-8 n d^2) < 5e-8
        return min(1.0, 2.0 * _smirnov_sf(n, d))
    return max(0.0, 1.0 - _durbin_cdf(n, d))


def ks_two_sample(a: np.ndarray, b: np.ndarray):
    """Two-sample KS statistic and p-value.

    The statistic is max |F_a - F_b| over the pooled sample.  The p-value is
    the finite-n Kolmogorov tail P(D_n > statistic) at the rounded effective
    size n = round(n1 n2 / (n1 + n2)), not the Kolmogorov limit.  An empty
    sample or a NaN gives (nan, nan); n = 0 gives a nan p-value.
    """
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.size, b.size
    if not (n1 and n2) or np.isnan(a[-1]) or np.isnan(b[-1]):  # NaN sorts last
        return math.nan, math.nan
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") / n1
           - np.searchsorted(b, pooled, side="right") / n2)
    d = float(max(gap.max(), -gap.min()))
    n = round(n1 * n2 / (n1 + n2))
    return d, (_kolmogorov_sf(n, d) if n else math.nan)


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
