"""Monte-Carlo certification of symbolic results.

Simulates SDE path ensembles (Euler-Maruyama, counter-based Philox noise),
applies deterministic symmetry flows with the accompanying time change,
and statistically compares transformed ensembles against fresh ensembles
with two-sample Kolmogorov-Smirnov tests at fixed checkpoints.  One
function (`_ensemble`) draws every ensemble: a linear SDE's (`_linear_law`)
from its exact law at the grid times read, any other's by Euler-Maruyama
on normals drawn in line.

Stochastic generators (phitilde != 0) are certified by direct residual
evaluation of the determining system; flow-based simulation is offered for
deterministic generators only, since the driving noise of a stochastic
flow is not pinned down by the symbolic layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import DEFAULT_WINDOW, VERIFY_TOL, _max_abs, sample_points
from .determining import DeterminingSystem, Sde, VectorField
from .expr import compile_fn, diff, evaluate_points, mul, simplify, var, variables_of
from .transform import TransformMap

FRESH_SEED_OFFSET = 1_000_003
KS_P_THRESHOLD = 0.01
N_CHECKPOINTS = 4
FLOW_SUBSTEPS = 64


class NumericError(ValueError):
    pass


class FlowError(NumericError):
    pass


class ParameterClashError(NumericError):
    pass


def joint_params(src: Sde, tgt: Sde) -> dict:
    """The parameter values of both SDEs, refusing a name bound to two
    values that evaluate differently."""
    params = src.bound_params()
    for name, value in tgt.bound_params().items():
        if float(params.setdefault(name, value)) != float(value):
            raise ParameterClashError(f"parameter {name} is {float(params[name])!r} "
                                      f"in the source and {float(value)!r} in the target")
    return params


# ---------------------------------------------------------------------------
# path simulation

def _grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size < 2 or not np.all(np.isfinite(times))
            or np.any(np.diff(times) <= 0)):
        raise NumericError("time grid must be finite and strictly increasing")
    return times


def _simulate_on_grid(sde: Sde, x0: float, times, normals: np.ndarray, rows):
    """Euler-Maruyama on the grid `times`, driven by the (n_paths, K) standard
    normals `normals`: X_{k+1} = (X_k + f h_k) + g dW_k, summed in this order,
    with dW_k = normals[:, k] * sqrt(h_k), on two rotating state rows.

    Returns (X, aborted): every path at the increasing grid rows `rows`, and
    the paths that hit a singularity or left the float range.  A non-finite
    state stays non-finite under a step, so those are the paths whose last
    state is non-finite, and they read NaN from the abort on.
    """
    times = _grid(times)
    if not math.isfinite(x0):
        raise NumericError(f"initial state {x0} is not finite")
    n, K = len(normals), times.size - 1
    params = sde.bound_params()
    f = compile_fn(sde.drift, ("t", "x"), params)
    g = compile_fn(sde.diffusion, ("t", "x"), params)
    steps = np.diff(times)
    X = np.empty((len(rows), n))
    kept = dict(zip(rows, X))
    tmp, dW, *spare = np.empty((4, n))
    x = kept.get(0, spare[1])
    x[...] = x0
    with np.errstate(all="ignore"):
        for k in range(K):
            nxt = kept.get(k + 1, spare[k % 2])
            np.multiply(f(times[k], x), steps[k], out=tmp)
            np.add(x, tmp, out=nxt)
            np.multiply(normals[:, k], math.sqrt(steps[k]), out=dW)
            np.multiply(g(times[k], x), dW, out=dW)
            np.add(nxt, dW, out=nxt)
            x = nxt
    X[~np.isfinite(X)] = np.nan
    return X, ~np.isfinite(x)


def _ensemble(sde: Sde, law, seed: int, n_paths: int, y0: float, grid, rows):
    """(X, aborted) of `sde` from y0 on `grid` at the grid rows `rows`, from
    Philox(key=seed): by `law` (`_linear_law`'s) if it is set, else by
    `_simulate_on_grid` on its first (n_paths, K) normals, so that path i's
    normals depend on (seed, i, K) only."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if law:
        return law(rng, n_paths, y0, grid, rows)
    grid = _grid(grid)
    return _simulate_on_grid(sde, y0, grid,
                             rng.standard_normal((n_paths, grid.size - 1)), rows)


def _simulate_uniform(sde: Sde, x0: float, h: float, K: int, n_paths: int,
                      seed: int, rows, law=None):
    """(times, X, aborted): the `_ensemble` of `seed` on the grid times = k h."""
    if h <= 0:
        raise NumericError("step size h must be positive")
    times = _grid(np.arange(K + 1, dtype=float) * h)
    return (times, *_ensemble(sde, law, seed, n_paths, x0, times, rows))


def _linear_law(sde: Sde):
    """law(rng, n_paths, y0, grid, rows) -> (X, aborted) as `_simulate_on_grid`
    gives them, from one (len(rows), n_paths) draw of rng by the exact law
    (Kloeden & Platen 1992, 4.2) of an sde with drift a x + b and diffusion
    sigma (OU) or c x (GBM, b = 0), a, b, c, sigma free of t and x, or None."""
    a, c = diff(sde.drift, "x"), diff(sde.diffusion, "x")
    # b = f - a x and sigma = g - c x, the terms as written if free of x
    b, sigma = (e if not variables_of(e) else simplify(e - mul(d, var("x")))
                for e, d in ((sde.drift, a), (sde.diffusion, c)))
    gbm = not c.is_zero()
    if (any(map(variables_of, (a, b, c, sigma)))
            or gbm and not (b.is_zero() and sigma.is_zero())):
        return None

    def law(rng, n_paths, y0, grid, rows):
        s = _grid(grid)[[0, *rows]]
        if not math.isfinite(y0):
            raise NumericError(f"initial state {y0} is not finite")
        a_, b_, c_, sigma_ = (compile_fn(e, (), sde.bound_params())()
                              for e in (a, b, c, sigma))
        span, N = (s[1:] - s[0])[:, None], rng.standard_normal((len(rows), n_paths))
        with np.errstate(all="ignore"):
            if gbm:
                X = y0 * np.exp((a_ - c_ * c_ / 2) * span + c_ * _ou_noise(0.0, s, N))
            else:
                X = (y0 + b_ * span if a_ == 0 else y0 * np.exp(a_ * span)
                     + b_ / a_ * np.expm1(a_ * span)) + sigma_ * _ou_noise(a_, s, N)
        X[~np.isfinite(X)] = np.nan
        return X, np.isnan(X).any(axis=0)
    return law


def _ou_noise(a: float, s, normals) -> np.ndarray:
    """M_j = sum_{k <= j} e^{a (s_j - s_k)} sqrt(v_k) N_k at s[1:], v_k the exact
    variance of step k: dM = a M dt + dW from M(s[0]) = 0, one cumsum per block
    of times within 300/|a| of its first, so that no factor leaves the float range."""
    steps = np.diff(s)
    v = steps if a == 0 else np.expm1(2 * a * steps) / (2 * a)
    inc = normals * np.sqrt(v)[:, None]
    M, r = np.zeros((len(s), normals.shape[1])), 0   # M[r] at s[r]
    while r < len(inc):
        end = np.searchsorted(s, s[r + 1] + 300 / abs(a), "right") - 1 if a else len(inc)
        g = np.exp(a * (s[r + 1:end + 1] - s[r + 1]))[:, None]
        M[r + 1:end + 1] = g * (np.cumsum(inc[r:end] / g, axis=0)
                                + np.exp(a * steps[r]) * M[r])
        r = end
    return M[1:]


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


def residual_check(ds: DeterminingSystem, params=None,
                   window=DEFAULT_WINDOW, seed: int = 0) -> ResidualReport:
    """Evaluate every residual at 200 quasi-random points; pass iff the
    largest magnitude is <= VERIFY_TOL.  Points hitting domain errors are
    rejected and resampled up to a retry cap."""
    params = dict(params or {})
    points = sample_points(200, window, seed, reject=ds.residuals,
                           params=params)
    per = _max_abs(evaluate_points(ds.residuals, points, params), axis=0)
    worst = float(_max_abs(per))
    return ResidualReport(worst, worst <= VERIFY_TOL, VERIFY_TOL, len(points),
                          tuple(float(m) for m in per))


# ---------------------------------------------------------------------------
# deterministic flows with time change

def _flow(tau, tau_t, phi, eps: float, n_sub: int, times, J, moved):
    """beta, the time change dbeta/dr = tau(beta) at r = eps from beta =
    `times`, by n_sub RK4 substeps.  Each substep forms its four stage times
    once and moves along them, in place, J (dJ/dr = tau_t(beta) J, one cell
    per grid time; skipped if None) and each (rows, Y) of `moved` (dY/dr =
    phi(beta[rows], Y), one row of Y per grid row in `rows`, across its
    paths), with three buffers per state.

    Per cell the roundings are those of Y + (h/6) (((k1 + 2 k2) + 2 k3) + k4)
    with k2 = phi(b2, Y + (h/2) k1) etc., for beta as for J and Y; a sum may
    take its operands in swapped order (IEEE addition commutes), so that
    most passes update a buffer in place and stream two arrays rather than
    three.  tau, tau_t and phi may return their argument or a scalar.
    """
    h = eps / n_sub
    c_half, c_sixth = 0.5 * h, h / 6.0
    beta = np.array(times, dtype=float, copy=True)
    states = [] if J is None else [(lambda b, F: tau_t(b) * F, ..., J)]
    states += [(phi, (rows,) + (None,) * (Y.ndim - 1), Y) for rows, Y in moved]
    states = [(f, at, Y, *(np.empty_like(Y) for _ in range(3)))
              for f, at, Y in states]
    with np.errstate(all="ignore"):
        for _ in range(n_sub):
            k1b = tau(beta)
            b2 = beta + c_half * k1b
            k2b = tau(b2)
            b3 = beta + c_half * k2b
            k3b = tau(b3)
            b4 = beta + h * k3b
            k4b = tau(b4)
            for f, at, Y, arg, acc, tmp in states:
                k1 = f(beta[at], Y)          # Y itself if phi = x
                np.multiply(k1, c_half, out=arg)
                np.add(arg, Y, out=arg)
                k = f(b2[at], arg)           # arg itself if phi = x
                np.multiply(k, 2, out=acc)
                np.add(acc, k1, out=acc)
                np.multiply(k, c_half, out=arg)
                np.add(arg, Y, out=arg)
                k = f(b3[at], arg)
                np.multiply(k, 2, out=tmp)
                np.add(acc, tmp, out=acc)
                np.multiply(k, h, out=arg)
                np.add(arg, Y, out=arg)
                np.add(acc, f(b4[at], arg), out=acc)
                np.multiply(acc, c_sixth, out=acc)
                np.add(Y, acc, out=Y)
            beta = beta + c_sixth * (k1b + 2 * k2b + 2 * k3b + k4b)
    return beta


def _flow_image(v: VectorField, eps: float, params, times, sub, cols, X,
                aborted):
    """The flow of v and the checks of verify_symmetry, which run on the
    source grid `times` and `sub`, the first few paths there (moved in
    place).

    X holds every path at the grid rows `cols` (a slice or an index array).
    One `_flow` pass of FLOW_SUBSTEPS moves the time change, its density J,
    `sub` and X; the step-halving pass of twice as many substeps moves the
    time change and a copy of `sub` only.  Returns the image grid, the
    images of X, and `aborted` or'ed with a non-finite image.
    """
    if v.has_stochastic_part():
        raise FlowError("the flow is simulated for deterministic generators "
                        "only (phitilde must vanish)")
    if not v.time_only_tau():
        raise FlowError("tau must depend on t only")
    tau, tau_t = (compile_fn(e, ("t",), params) for e in (v.tau, diff(v.tau, "t")))
    phi = compile_fn(v.phi, ("t", "x"), params)
    J, sub2, F = np.ones(np.shape(times)), np.array(sub), np.array(X, order="C")
    beta = _flow(tau, tau_t, phi, eps, FLOW_SUBSTEPS, times, J,
                 [(slice(None), sub), (cols, F)])
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(J))):
        raise FlowError("time change is not finite at this eps")
    # step-halving convergence check on the grid and a path subsample
    beta2 = _flow(tau, tau_t, phi, eps, 2 * FLOW_SUBSTEPS, times, None,
                  [(slice(None), sub2)])
    with np.errstate(invalid="ignore"):
        diffs = np.abs(sub2 - sub)
    # aborted or blown-up paths are dropped below, not held against the flow
    conv = max(float(_max_abs(beta - beta2)),
               float(np.max(diffs[np.isfinite(diffs)], initial=0.0)))
    if conv > 1e-8:
        raise FlowError(
            f"flow integration did not converge (step-halving difference {conv:.3e})")
    if np.any(J <= 0.0) or np.any(np.diff(beta) <= 0.0):
        raise FlowError("time change lost monotonicity at this eps")
    return beta, F, aborted | ~np.all(np.isfinite(F), axis=0)


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
    """Two-sample KS tests of two ensembles at the checkpoints.

    `passed` holds when every checkpoint's p-value exceeds
    p_threshold / len(checkpoints) (a Bonferroni correction), so that a pair
    of ensembles with equal marginals fails at most a fraction p_threshold
    of seeds, however many checkpoints are tested.
    """

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


def _checkpoint_indices(K: int):
    n = N_CHECKPOINTS
    return sorted({max(1, round(K * (j + 1) / n)) for j in range(n)})


def _compare_ensembles(image: np.ndarray, aborted: np.ndarray, seed: int,
                       times, fresh: np.ndarray, fresh_aborted) -> KSReport:
    """KS tests of row j of `image` (every moved path at the checkpoints)
    against row j of `fresh` (the fresh paths at the checkpoint times[j]);
    the aborted paths of either are left out."""
    keep_a, keep_b = ~aborted, ~fresh_aborted
    cps = []
    for j, t in enumerate(times):
        xa, xb = image[j, keep_a], fresh[j, keep_b]
        stat, p = ks_two_sample(xa, xb)
        cps.append(Checkpoint(float(t), stat, p, xa.size, xb.size))
    ok = all(cp.p_value > KS_P_THRESHOLD / len(cps) for cp in cps)
    return KSReport(tuple(cps), ok, seed, seed + FRESH_SEED_OFFSET,
                    image.shape[1], int(aborted.sum() + fresh_aborted.sum()))


def verify_symmetry(sde: Sde, v: VectorField, eps: float, *,
                    x0: float = 1.0, h: float = 1e-3, K: int = 1000,
                    n_paths: int = 2000, seed: int = 0) -> KSReport:
    """Distributional check that the flow of v maps solutions to solutions.

    Draws the SDE's ensemble (from its exact law if it is linear, see
    `_linear_law`), transports it along the flow of v, and compares its
    marginals (4 checkpoints, two-sample KS) against a fresh ensemble of
    the same SDE (`_ensemble` of seed + FRESH_SEED_OFFSET) from the
    transformed initial state on the image time grid.  The time change and
    its checks run on the whole grid; the paths are kept and moved at the
    checkpoints only.
    """
    cols = _checkpoint_indices(K)
    if n_paths < 1:
        raise NumericError(f"need at least 1 path, got {n_paths}")
    law = _linear_law(sde)
    times, X, aborted = _simulate_uniform(sde, x0, h, K, n_paths, seed, cols, law)
    # the step-halving check's paths (a simulated source's first 8)
    sub, _ = _ensemble(sde, law, seed, min(8, n_paths), x0, times, range(K + 1))
    beta, image, aborted = _flow_image(v, eps, sde.bound_params(), times,
                                       sub, cols, X, aborted)
    # every path starts at x0, so the moved first cell is the image of x0
    Z, fresh_aborted = _ensemble(sde, law, seed + FRESH_SEED_OFFSET, n_paths,
                                 float(sub[0, 0]), beta, cols)
    return _compare_ensembles(image, aborted, seed, beta[cols], Z,
                              fresh_aborted)


def verify_map(src: Sde, tgt: Sde, tmap: TransformMap, *,
               x0: float = 1.0, h: float = 1e-3, K: int = 1000,
               n_paths: int = 2000, seed: int = 0) -> KSReport:
    """Distributional check that mu maps src solutions to tgt solutions.

    Source paths X(t_k) (exact-law draws if src is linear, `_linear_law`)
    become Y_k = mu2(t_k, X(t_k)) at s_k = mu1(t_k); their marginals are
    compared at 4 checkpoints by two-sample KS with a fresh target ensemble
    (`_ensemble` of seed + FRESH_SEED_OFFSET) on {s_k} from mu2(0, x0).
    mu1 is checked on the whole grid; the paths are kept, and mu2
    evaluated, at the checkpoints only.
    """
    if not tmap.time_only():
        raise NumericError("mu1 must depend on t only for numeric verification")
    params = joint_params(src, tgt)
    mu1 = compile_fn(simplify(tmap.mu1), ("t",), params)
    dmu1 = compile_fn(diff(tmap.mu1, "t"), ("t",), params)
    cols = _checkpoint_indices(K)
    if n_paths < 1:
        raise NumericError(f"need at least 1 path, got {n_paths}")
    times, X, aborted = _simulate_uniform(src, x0, h, K, n_paths, seed, cols,
                                          _linear_law(src))
    slope = np.asarray(dmu1(times), dtype=float)
    if np.any(~np.isfinite(slope)) or np.any(slope <= 0.0):
        raise NumericError("mu1 is not strictly increasing on the window")
    mu2 = compile_fn(simplify(tmap.mu2), ("t", "x"), params)
    with np.errstate(all="ignore"):
        image = np.broadcast_to(
            np.asarray(mu2(times[cols, None], X), dtype=float), X.shape)
        # numpy arithmetic, so a singular mu2 gives inf rather than raising
        y0 = float(np.asarray(mu2(times[0], np.float64(x0)), dtype=float))
    aborted = aborted | ~np.all(np.isfinite(image), axis=0)
    grid = np.asarray(mu1(times), dtype=float)
    Z, fresh_aborted = _ensemble(tgt, _linear_law(tgt), seed + FRESH_SEED_OFFSET,
                                 n_paths, y0, grid, cols)
    return _compare_ensembles(image, aborted, seed, grid[cols], Z,
                              fresh_aborted)
