"""Bit identity of the step-major simulation and the flow transport.

The reference implementations below are the straightforward loops: one
Euler-Maruyama step over a (n_paths, K+1) array per grid time, and one RK4
substep over the whole (beta, J, F) arrays at a time.  The production code
must reproduce every bit of them, NaNs included.

The verifiers move paths only at the KS checkpoints.  The references
`reference_verify_symmetry` and `reference_verify_map` move every cell of
the ensemble, as the verifiers once did, and must print the same report.
Both of their ensembles, the source (`reference_source`) and the fresh one
(`reference_fresh`), step through the exact law (`reference_exact_law`) of
a linear SDE, whose coefficients sympy reads, and are simulated by
`reference_simulate` otherwise.  The production exact law sums from the
start rather than step by step, so it agrees with that loop to rounding
(bit for bit when a = 0); the KS statistics read only the order of the
samples, so the reports are the same.
"""

import math
import sys
import threading

import numpy as np
import pytest
import sympy as sp

from sdesym.determining import Sde, VectorField
from sdesym.expr import compile_fn, diff, parse, simplify
from sdesym import numeric
from sdesym.numeric import (
    FRESH_SEED_OFFSET,
    KS_P_THRESHOLD,
    Checkpoint,
    FlowError,
    KSReport,
    NumericError,
    _checkpoint_indices,
    _flow_image,
    _fresh_ensemble,
    _simulate_on_grid,
    _simulate_uniform,
    _time_change,
    _transport,
    ks_two_sample,
    verify_map,
    verify_symmetry,
)
from sdesym.transform import TransformMap

from conftest import to_sympy

P = ("a", "b")


def p(s):
    return parse(s, parameters=P)


def reference_simulate(sde, x0, times, n_paths, seed):
    times = np.asarray(times, dtype=float)
    K = times.size - 1
    params = sde.bound_params()
    f = compile_fn(sde.drift, ("t", "x"), params)
    g = compile_fn(sde.diffusion, ("t", "x"), params)
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
    return times, X, ~alive


def philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def linear_coefficients(sde):
    """("ou", a, b, sigma) of drift a x + b and diffusion sigma, ("gbm", a,
    c) of drift a x and diffusion c x, or None: read by sympy, with the
    parameters bound."""
    x, t = sp.symbols("x t")
    bound = {sp.Symbol(k): v for k, v in sde.bound_params().items()}
    f, g = (sp.simplify(to_sympy(e).subs(bound))
            for e in (sde.drift, sde.diffusion))
    a, c = sp.diff(f, x), sp.diff(g, x)
    if f.has(t) or g.has(t) or a.has(x) or c.has(x):
        return None
    b = f.subs(x, 0)
    if c == 0:
        return "ou", float(a), float(b), float(g)
    return ("gbm", float(a), float(c)) if b == 0 and g.subs(x, 0) == 0 else None


def reference_exact_law(sde, y0, times, n_paths, rng, rows=None):
    """(times, paths, aborted) of a linear sde, path-major like
    reference_simulate, from its exact law at the grid columns `rows` (the
    checkpoints by default; the other cells read NaN).  The law steps from
    y0 at times[0] to each column in turn, driven by one row of a
    (len(rows), n_paths) draw of `rng` per step (Kloeden & Platen 1992,
    4.2): OU moves X to X e^{a D} + (b/a)(e^{a D} - 1) + sigma sqrt((e^{2 a D}
    - 1)/(2 a)) N over a step D, and GBM to X exp((a - c^2/2) D + c sqrt(D)
    N).  An OU law with a = 0 is Z_j = y0 + b (s_j - s_0) + sigma W(s_j -
    s_0), W summed from the steps' sqrt(D) N."""
    times = np.asarray(times, dtype=float)
    rows = list(_checkpoint_indices(times.size - 1) if rows is None else rows)
    kind, a, *rest = linear_coefficients(sde)
    normals = rng.standard_normal((len(rows), n_paths))
    Z = np.full((n_paths, times.size), np.nan)
    X, W, prev = np.full(n_paths, float(y0)), 0.0, times[0]
    with np.errstate(all="ignore"):
        for j, k in enumerate(rows):
            D = times[k] - prev
            prev = times[k]
            if kind == "gbm":
                c, = rest
                X = X * np.exp((a - c * c / 2) * D + c * math.sqrt(D) * normals[j])
            elif a == 0:
                b, sigma = rest
                dW = math.sqrt(D) * normals[j]
                W = dW if j == 0 else W + dW
                X = (y0 + b * (times[k] - times[0])) + sigma * W
            else:
                b, sigma = rest
                X = (X * math.exp(a * D) + b / a * (math.exp(a * D) - 1)
                     + sigma * math.sqrt((math.exp(2 * a * D) - 1) / (2 * a))
                     * normals[j])
            Z[:, k] = X
    aborted = ~np.all(np.isfinite(Z[:, rows]), axis=1)
    Z[:, rows] = np.where(np.isfinite(Z[:, rows]), Z[:, rows], np.nan)
    return times, Z, aborted


def reference_fresh(sde, y0, times, n_paths, seed):
    """The fresh ensemble of the verifiers, with the noise of `seed`."""
    if linear_coefficients(sde) is None:
        return reference_simulate(sde, y0, times, n_paths, seed)
    return reference_exact_law(sde, y0, times, n_paths, philox(seed))


def reference_source(sde, x0, h, K, n_paths, seed):
    """(times, paths, aborted, sub, kept) of the verifiers' source ensemble,
    read at the grid columns `kept`.  A linear sde's paths are its exact law
    at the checkpoints, and its step-halving subsample `sub` is min(8,
    n_paths) paths of it at every grid time, each from the noise of `seed`;
    any other sde is simulated, and `sub` is its first 8 paths."""
    if linear_coefficients(sde) is None:
        times, paths, aborted = simulate(sde, x0, h, K, n_paths, seed)
        return times, paths, aborted, paths[:8], slice(None)
    times = np.arange(K + 1) * h
    _, paths, aborted = reference_exact_law(sde, x0, times, n_paths,
                                            philox(seed))
    sub = reference_exact_law(sde, x0, times, min(8, n_paths), philox(seed),
                              range(K + 1))[1]
    return times, paths, aborted, sub, _checkpoint_indices(K)


def philox_normals(seed, n_paths, K):
    """The normals reference_simulate draws for `seed`."""
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal(
        (n_paths, K))


def simulate(sde, x0, h, K, n_paths, seed):
    """(times, paths, aborted) of the production simulator at every grid
    time, path-major like the references."""
    times, X, aborted = _simulate_uniform(sde, x0, h, K, n_paths, seed,
                                          range(K + 1))
    return times, X.T, aborted


def reference_flow(v, params, eps, n_sub, times, states=None):
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


def reference_flow_image(times, paths, aborted, v, eps, params, sub, kept):
    """(beta, moved paths, aborted): every cell of the path-major ensemble
    moved, with the checks of the verifier, whose step-halving check moves
    the paths `sub`; a path is dropped, and reads NaN, when its image is
    non-finite at any of the grid columns `kept`."""
    beta, J, F = reference_flow(v, params, eps, 64, times, paths)
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(J))):
        raise FlowError("time change is not finite at this eps")
    sub1 = reference_flow(v, params, eps, 64, times, sub)[2]
    beta2, _, sub2 = reference_flow(v, params, eps, 128, times, sub)
    with np.errstate(invalid="ignore"):
        diffs = np.abs(sub2 - sub1)
    conv = max(float(np.max(np.abs(beta - beta2))),
               float(np.max(diffs[np.isfinite(diffs)], initial=0.0)))
    if conv > 1e-8:
        raise FlowError(
            f"flow integration did not converge (step-halving difference {conv:.3e})")
    if np.any(J <= 0.0) or np.any(np.diff(beta) <= 0.0):
        raise FlowError("time change lost monotonicity at this eps")
    aborted = aborted | ~np.all(np.isfinite(F[:, kept]), axis=1)
    return beta, np.where(aborted[:, None], np.nan, F), aborted


def reference_compare(times, moved, aborted, fresh, fresh_aborted, seed):
    """KS tests of two whole path-major ensembles at the checkpoints."""
    keep_a, keep_b = ~aborted, ~fresh_aborted
    cps = []
    for k in _checkpoint_indices(times.size - 1):
        xa, xb = moved[keep_a, k], fresh[keep_b, k]
        stat, pv = ks_two_sample(xa, xb)
        cps.append(Checkpoint(float(times[k]), stat, pv, xa.size, xb.size))
    ok = all(cp.p_value > KS_P_THRESHOLD / len(cps) for cp in cps)
    return KSReport(tuple(cps), ok, seed, seed + FRESH_SEED_OFFSET,
                    moved.shape[0], int(aborted.sum() + fresh_aborted.sum()))


def reference_verify_symmetry(sde, v, eps, x0, h, K, n_paths, seed):
    params = sde.bound_params()
    times, paths, aborted, sub, kept = reference_source(sde, x0, h, K,
                                                        n_paths, seed)
    beta, moved, aborted = reference_flow_image(times, paths, aborted, v, eps,
                                                params, sub, kept)
    y0 = float(reference_flow(v, params, eps, 64, np.array(0.0),
                              np.array(x0))[2])
    _, fresh, fresh_aborted = reference_fresh(sde, y0, beta, n_paths,
                                              seed + FRESH_SEED_OFFSET)
    return reference_compare(beta, moved, aborted, fresh, fresh_aborted, seed)


def reference_verify_map(src, tgt, tmap, x0, h, K, n_paths, seed):
    params = {**src.bound_params(), **tgt.bound_params()}
    times, paths, aborted, _, kept = reference_source(src, x0, h, K, n_paths,
                                                      seed)
    s_times = np.asarray(compile_fn(simplify(tmap.mu1), ("t",), params)(times),
                         dtype=float)
    mu2 = compile_fn(simplify(tmap.mu2), ("t", "x"), params)
    with np.errstate(all="ignore"):
        Y = np.asarray(mu2(np.broadcast_to(times, paths.shape), paths),
                       dtype=float)
        y0 = float(np.asarray(mu2(0.0, np.float64(x0)), dtype=float))
    aborted = aborted | ~np.all(np.isfinite(Y[:, kept]), axis=1)
    moved = np.where(aborted[:, None], np.nan, Y)
    _, fresh, fresh_aborted = reference_fresh(tgt, y0, s_times, n_paths,
                                              seed + FRESH_SEED_OFFSET)
    return reference_compare(s_times, moved, aborted, fresh, fresh_aborted,
                             seed)


def same(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def same_bits(a, b):
    """Equal shapes and equal bits in every cell, NaN payloads included."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


def flow(v, params, eps, n_sub, times, states):
    """(beta, J, F) of the production flow: the time change on `times`, and
    a copy of `states` (one row per grid time) transported along its stage
    times."""
    beta, J, stages = _time_change(v, params, eps, n_sub, times)
    F = np.array(states, dtype=float)
    _transport(compile_fn(v.phi, ("t", "x"), params), eps / n_sub, stages, F)
    return beta, J, F


def flow_image(times, paths, aborted, v, eps, params, cols):
    """_flow_image on a whole path-major ensemble, read at the grid columns
    `cols`; the image is path-major too."""
    beta, image, aborted = _flow_image(v, eps, params, times,
                                       paths[:8].T.copy(), cols,
                                       paths.T[cols], aborted)
    return beta, image.T, aborted


BROWNIAN = Sde(p("0"), p("1"))
SDES = {
    "brownian": BROWNIAN,
    "langevin": Sde(p("a*x"), p("b"), {"a": 1.0, "b": 1.0}),
    "gbm": Sde(p("a*x"), p("b*x"), {"a": 0.3, "b": 0.7}),
    "t-dependent": Sde(p("-x/(1+t) + exp(-t)"), p("(1 + x^2)^(1/2)")),
    "aborting": Sde(p("log(x)"), p("1")),      # log of x <= 0 is nan
    "overflowing": Sde(p("x^2"), p("1")),     # reaches inf near t = 2
}
K_LONG = 1000
# path counts of one lone path, a few dozen and the CLI's ensemble
PATH_COUNTS = (1, 31, 33, 2000)

FIELDS = {
    "scaling": VectorField(p("2*t"), p("x")),          # phi = x: identity
    "t-dependent": VectorField(p("1"), p("exp(a*t)")),
    "constant": VectorField(p("0"), p("1")),
    "mixed": VectorField(p("1 + t^2/4"), p("x*exp(-t) + log(1 + t*x^2)")),
}
FLOW_CASES = [(name, n, eps) for name in sorted(FIELDS)
              for n in PATH_COUNTS[:-1] for eps in (0.2, -0.15)]
FLOW_CASES.append(("scaling", 2000, 0.2))


class TestSimulationOracle:
    @pytest.mark.parametrize("name", sorted(SDES))
    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_euler_maruyama_bit_identical(self, name, n_paths):
        K = K_LONG if n_paths == 2000 else 300
        got = simulate(SDES[name], 0.5, 1e-3 if n_paths == 2000 else 1e-2, K,
                       n_paths, seed=11)
        times, X, aborted = reference_simulate(SDES[name], 0.5, got[0],
                                               n_paths, 11)
        assert same(got[0], times)
        assert same(got[1], X)
        assert same(got[2], aborted)

    @pytest.mark.parametrize("name", ["aborting", "overflowing"])
    def test_aborted_paths_are_nan(self, name):
        times, paths, aborted = simulate(SDES[name], 0.5, 1e-2, 300, 500, seed=5)
        assert 0 < aborted.sum() < 500
        assert np.all(np.isnan(paths[aborted, -1]))
        ref = reference_simulate(SDES[name], 0.5, times, 500, 5)
        assert same(paths, ref[1]) and same(aborted, ref[2])

    def test_non_uniform_grid(self):
        grid = np.cumsum(np.linspace(1e-3, 3e-3, 200))
        X, _ = _simulate_on_grid(SDES["t-dependent"], 1.0, grid,
                                 philox_normals(3, 64, 199), range(200))
        ref = reference_simulate(SDES["t-dependent"], 1.0, grid, 64, 3)
        assert same(X.T, ref[1])

    def test_shapes(self):
        times, X, aborted = _simulate_uniform(BROWNIAN, 0.0, 1e-2, 50, 7, 1,
                                              range(51))
        assert X.shape == (51, 7)
        assert aborted.shape == (7,)
        assert times.shape == (51,)


class TestFlowOracle:
    @pytest.mark.parametrize("name, n_paths, eps", FLOW_CASES)
    def test_flow_integrate_bit_identical(self, name, n_paths, eps):
        K = K_LONG if n_paths in (2000, 33) else 200
        times, X, _ = _simulate_uniform(BROWNIAN, 0.5, 1e-3, K, n_paths, 7,
                                        range(K + 1))
        params = {"a": 1.0}
        want = reference_flow(FIELDS[name], params, eps, 64, times, X.T)
        # the step-major array of a simulated ensemble, and an F-ordered copy
        for states in (X, np.asfortranarray(X)):
            beta, J, F = flow(FIELDS[name], params, eps, 64, times, states)
            assert same(beta, want[0]) and same(J, want[1])
            assert same(F.T, want[2])

    def test_flow_apply_on_aborted_paths(self):
        times, paths, aborted = simulate(SDES["aborting"], 0.5, 1e-2, 300, 200,
                                         seed=5)
        assert aborted.any()
        beta, image, moved_aborted = flow_image(
            times, paths, aborted, FIELDS["scaling"], 0.1, {}, slice(None))
        want_beta, _, F = reference_flow(FIELDS["scaling"], {}, 0.1, 64,
                                         times, paths)
        assert same(beta, want_beta)
        assert same(moved_aborted, aborted | ~np.all(np.isfinite(F), axis=1))
        assert same(image, F)
        assert image.shape == paths.shape

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_flow_map_points(self, name):
        t = np.linspace(0.1, 1.0, 7)
        x = np.linspace(-1.0, 2.0, 7)
        beta, J, F = flow(FIELDS[name], {"a": 1.0}, 0.2, 64, t, x)
        want = reference_flow(FIELDS[name], {"a": 1.0}, 0.2, 64, t, x)
        assert same(F, want[2])
        assert same(beta, want[0])
        assert same(J, want[1])
        # verify_symmetry starts the fresh ensemble at cell 0 of its moved
        # subsample: the image of the lone point (times[0], x0)
        times, sub, _ = _simulate_uniform(BROWNIAN, 1.2, 1e-2, 100, 8, 7,
                                          range(101))
        cols = _checkpoint_indices(100)
        for eps in (0.2, -0.15):
            moved = sub.copy()
            _flow_image(FIELDS[name], eps, {"a": 1.0}, times, moved, cols,
                        sub[cols], np.zeros(8, dtype=bool))
            lone = reference_flow(FIELDS[name], {"a": 1.0}, eps, 64,
                                  np.array(times[0]), np.array(1.2))[2]
            assert same_bits(moved[:1, 0], np.reshape(lone, 1))


class TestNonFiniteTimes:
    def test_blown_up_time_change_is_refused(self):
        # d(beta)/dr = beta^2 reaches infinity before r = 1.5 for t >= 2/3
        ens = simulate(BROWNIAN, 0.0, 1e-2, 100, 16, seed=1)
        with pytest.raises(FlowError, match="not finite"):
            flow_image(*ens, VectorField(p("t^2"), p("x")), 1.5, {},
                       slice(None))

    @pytest.mark.parametrize("grid", [[0.0, 1.0, np.inf], [0.0, np.inf, np.inf],
                                      [0.0, np.nan, 1.0], [-np.inf, 0.0, 1.0]])
    def test_non_finite_grid_is_refused(self, grid):
        with pytest.raises(NumericError, match="finite"):
            _simulate_on_grid(BROWNIAN, 0.0, np.array(grid), np.zeros((4, 2)),
                              [0])


# the verifiers' ensembles: fewer cells than the CLI's 2000 x 1000
VERIFY_SIZE = {"h": 2e-3, "K": 400, "n_paths": 700}
VERIFY_SEEDS = (1, 2, 3, 7, 42)
LANGEVIN = Sde(p("a*x"), p("b"), {"a": 1.0, "b": 1.0})
AXINV = Sde(p("a/x"), p("1"), {"a": 1.0})
SCALING = VectorField(p("2*t"), p("x"))
# both ensembles of Brownian motion, Langevin, GBM and a stiff OU (whose
# every-grid-time subsample spans more than 300/|a|) are their exact laws;
# those of axinv and the t-dependent SDE are simulated
SYMMETRIES = {
    "scaling": (BROWNIAN, SCALING, 0.2, 0.5),
    "langevin": (LANGEVIN, VectorField(phi=p("exp(a*t)")), 0.2, 1.0),
    "driftless-gbm": (Sde(p("0"), p("x")), VectorField(phi=p("x")), 0.2, 1.0),
    "gbm": (SDES["gbm"], VectorField(phi=p("x")), 0.2, 1.0),
    "stiff-ou": (Sde(p("a*x"), p("1"), {"a": -400.0}),
                 VectorField(phi=p("exp(a*t)")), 0.2, 1.0),
    "axinv": (AXINV, SCALING, 0.2, 1.0),
    "t-dependent": (SDES["t-dependent"], FIELDS["constant"], 0.2, 0.5),
}
OU = Sde(p("x"), p("1"))
MAPS = {
    "paper": TransformMap(parse("-1/2*exp(-2*t)"), parse("x*exp(-t)")),
    "wrong": TransformMap(parse("-1/2*exp(-2*t)"), parse("x")),
    "identity": TransformMap(parse("t"), parse("x")),
}
# (source, target, map, whether it maps the source onto the target): OU
# onto Brownian motion and onto LANGEVIN, which is OU itself (Y = X + e^t
# solves it too, Y = 2X does not), whose ensembles are exact laws; and
# axinv and the t-dependent SDE, whose ensembles are simulated
MAP_CASES = {
    "paper": (OU, BROWNIAN, MAPS["paper"], True),
    "wrong": (OU, BROWNIAN, MAPS["wrong"], False),
    "langevin-shift": (OU, LANGEVIN,
                       TransformMap(parse("t"), parse("x + exp(t)")), True),
    "langevin-wrong": (OU, LANGEVIN, TransformMap(parse("t"), parse("2*x")),
                       False),
    "axinv-identity": (AXINV, AXINV, MAPS["identity"], True),
    "axinv-onto-brownian": (AXINV, BROWNIAN, MAPS["identity"], False),
    "t-dependent-identity": (SDES["t-dependent"], SDES["t-dependent"],
                             MAPS["identity"], True),
}


class TestCheckpointTransport:
    @pytest.mark.parametrize("seed", VERIFY_SEEDS)
    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    def test_verify_symmetry_report_unchanged(self, name, seed):
        sde, v, eps, x0 = SYMMETRIES[name]
        got = verify_symmetry(sde, v, eps, x0=x0, seed=seed, **VERIFY_SIZE)
        want = reference_verify_symmetry(sde, v, eps, x0, seed=seed,
                                         **VERIFY_SIZE)
        assert got.to_kv() == want.to_kv()

    @pytest.mark.parametrize("seed", VERIFY_SEEDS)
    @pytest.mark.parametrize("name", sorted(MAP_CASES))
    def test_verify_map_report_unchanged(self, name, seed):
        src, tgt, tmap, valid = MAP_CASES[name]
        got = verify_map(src, tgt, tmap, x0=1.0, seed=seed, **VERIFY_SIZE)
        want = reference_verify_map(src, tgt, tmap, 1.0, seed=seed,
                                    **VERIFY_SIZE)
        assert got.to_kv() == want.to_kv()
        assert got.passed == valid

    @pytest.mark.parametrize("eps", (0.2, -0.15))
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_checkpoint_cells_bit_identical(self, name, eps):
        ens = simulate(BROWNIAN, 0.5, 2e-3, 300, 500, seed=7)
        cols = _checkpoint_indices(300)
        params = {"a": 1.0}
        beta, image, aborted = flow_image(*ens, FIELDS[name], eps, params, cols)
        full_beta, full, _ = flow_image(*ens, FIELDS[name], eps, params,
                                        slice(None))
        assert same(beta, full_beta) and same(image, full[:, cols])
        want = reference_flow(FIELDS[name], params, eps, 64, ens[0], ens[1])
        assert same(beta, want[0]) and same(image, want[2][:, cols])
        assert not aborted.any()

    @pytest.mark.parametrize("v, eps, size", [
        (VectorField(p("t^2"), p("x")), 1.5, (1e-2, 100, 16)),
        (VectorField(tau=p("2 - 3*t")), 12.0, (1e-1, 10, 4)),
    ])
    def test_same_flow_errors(self, v, eps, size):
        h, K, n = size
        ens = simulate(BROWNIAN, 0.0, h, K, n, seed=1)
        with pytest.raises(FlowError) as want:
            flow_image(*ens, v, eps, {}, slice(None))
        with pytest.raises(FlowError) as got:
            verify_symmetry(BROWNIAN, v, eps, x0=0.0, h=h, K=K, n_paths=n,
                            seed=1)
        assert str(got.value) == str(want.value)

    def test_abort_rule_reads_the_checkpoints(self):
        # K = 8: the checkpoints are grid times 2, 4, 6 and 8.  log(x) is
        # nan for x < 0, so the first path's image is non-finite at grid
        # time 3 only, the second's at grid time 4 only
        paths = np.ones((2, 9))
        paths[0, 3] = paths[1, 4] = -1.0
        ens = (np.arange(9) / 8, paths, np.zeros(2, dtype=bool))
        v = VectorField(p("0"), p("log(x)"))
        _, image, aborted = flow_image(*ens, v, 0.1, {}, _checkpoint_indices(8))
        assert aborted.tolist() == [False, True]
        assert np.all(np.isfinite(image[0]))
        # the whole-grid image drops both
        assert flow_image(*ens, v, 0.1, {}, slice(None))[2].tolist() == [True, True]

    @pytest.mark.parametrize("pole, dropped", [("3/8", 0), ("1/4", 600)])
    def test_verify_symmetry_drops_at_checkpoints_only(self, pole, dropped):
        # every image is infinite at the pole t = 3/8 (between checkpoints)
        # or t = 1/4 (a checkpoint); the whole-grid reference of a simulated
        # source drops every path in both cases
        v = VectorField(p("0"), p(f"1/(t - {pole})"))
        size = {"x0": 0.0, "h": 0.125, "K": 8, "n_paths": 600, "seed": 3}
        sde = SDES["t-dependent"]
        assert verify_symmetry(sde, v, 0.1, **size).aborted == dropped
        assert reference_verify_symmetry(sde, v, 0.1, **size).aborted == 600


KEPT_PATH_COUNTS = (1, 8, 33, 2000)


class TestKeptRows:
    """The simulator keeps the caller's grid rows, and verify_symmetry steps
    the first 8 paths again at every grid time; both must have the bits of
    the whole-grid loop."""

    @pytest.mark.parametrize("every_row", [False, True])
    @pytest.mark.parametrize("n_paths", KEPT_PATH_COUNTS)
    @pytest.mark.parametrize("name", sorted(SDES))
    def test_kept_rows_bit_identical(self, name, n_paths, every_row):
        K = 300
        times = np.arange(K + 1) * 1e-2
        rows = list(range(K + 1)) if every_row else _checkpoint_indices(K)
        X, aborted = _simulate_on_grid(SDES[name], 0.5, times,
                                       philox_normals(11, n_paths, K), rows)
        _, ref, ref_aborted = reference_simulate(SDES[name], 0.5, times,
                                                 n_paths, 11)
        assert same_bits(X, ref[:, rows].T)
        assert same(aborted, ref_aborted)
        if name in ("aborting", "overflowing") and n_paths == 2000:
            assert 0 < aborted.sum() < n_paths and np.isnan(X[-1]).any()

    @pytest.mark.parametrize("n_paths", KEPT_PATH_COUNTS)
    @pytest.mark.parametrize("name", sorted(SDES))
    def test_subsample_bit_identical(self, name, n_paths):
        # the first min(8, n) paths of an n-path run, stepped on their own
        K = 300
        times, sub, _ = _simulate_uniform(SDES[name], 0.5, 1e-2, K,
                                          min(8, n_paths), 11, range(K + 1))
        _, ref, _ = reference_simulate(SDES[name], 0.5, times, n_paths, 11)
        assert same_bits(sub, ref[:8].T)


def _map_refusals(ref):
    """The refusals of both verifiers, whose fresh ensemble is that of the
    SDE `ref`: the target of each map, the SDE of each symmetry."""
    run = {"x0": 1.0, "seed": 1, **VERIFY_SIZE}
    return {
        "mu1 not increasing": lambda: verify_map(
            OU, ref, TransformMap(parse("-t"), parse("x")), **run),
        "flow not finite": lambda: verify_symmetry(
            ref, VectorField(p("t^2"), p("x")), 1.5, x0=0.0, h=1e-2,
            K=100, n_paths=16, seed=1),
        "y0 not finite": lambda: verify_map(
            OU, ref, TransformMap(parse("t"), parse("1/x")),
            **{**run, "x0": 0.0}),
        "h <= 0 (map)": lambda: verify_map(OU, ref, MAPS["paper"],
                                           **{**run, "h": 0.0}),
        "h <= 0 (symmetry)": lambda: verify_symmetry(
            ref, FIELDS["scaling"], 0.2, **{**run, "h": -1e-3}),
        "K < 0": lambda: verify_map(OU, ref, MAPS["paper"],
                                    **{**run, "K": -5}),
        "no paths (map)": lambda: verify_map(OU, ref, MAPS["paper"],
                                             **{**run, "n_paths": 0}),
        "no paths (symmetry)": lambda: verify_symmetry(
            ref, FIELDS["scaling"], 0.2, **{**run, "n_paths": 0}),
    }


REFUSALS = {
    "mu1 not increasing": (NumericError, "not strictly increasing"),
    "flow not finite": (FlowError, "time change is not finite"),
    "y0 not finite": (NumericError, "initial state inf is not finite"),
    "h <= 0 (map)": (NumericError, "step size h must be positive"),
    "h <= 0 (symmetry)": (NumericError, "step size h must be positive"),
    "K < 0": (NumericError, "time grid must be finite"),
    "no paths (map)": (NumericError, "need at least 1 path, got 0"),
    "no paths (symmetry)": (NumericError, "need at least 1 path, got 0"),
}


class TestFreshNoiseThread:
    """Each verifier whose fresh ensemble is simulated (here axinv's, whose
    drift a/x is not linear) draws its noise on one worker thread and joins
    it on every path out."""

    def verifiers(self):
        sde, v, eps, x0 = SYMMETRIES["axinv"]
        src, tgt, tmap, _ = MAP_CASES["axinv-identity"]
        yield lambda: verify_symmetry(sde, v, eps, x0=x0, seed=3, **VERIFY_SIZE)
        yield lambda: verify_map(src, tgt, tmap, x0=1.0, seed=3, **VERIFY_SIZE)

    def test_one_worker_joined_per_call(self, monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        before = threading.active_count()
        for call in self.verifiers():
            call()
            assert threading.active_count() == before
        assert len(started) == 2
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refusals_join_the_worker(self, name, monkeypatch):
        failed = []
        monkeypatch.setattr(threading, "excepthook", failed.append)
        before = threading.active_count()
        error, message = REFUSALS[name]
        with pytest.raises(error, match=message):
            _map_refusals(AXINV)[name]()
        assert threading.active_count() == before
        assert failed == []   # a failed draw on the worker is not printed

    def test_a_lost_draw_is_drawn_again(self, monkeypatch):
        # a worker that never fills its box: the caller draws the same
        # normals itself, so the report does not change
        want = [call().to_kv() for call in self.verifiers()]

        class Idle(threading.Thread):
            def start(self):
                pass

            def join(self, timeout=None):
                pass

        monkeypatch.setattr(threading, "Thread", Idle)
        assert [call().to_kv() for call in self.verifiers()] == want

    def test_concurrent_calls_keep_their_reports(self):
        # more callers than cores, switching often: each call owns its
        # worker and its normals, so every report is the serial one
        want = [call().to_kv() for call in self.verifiers()] * 3
        got = [None] * len(want)
        calls = list(self.verifiers()) * 3

        def run(i):
            got[i] = calls[i]().to_kv()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(i,))
                       for i in range(len(calls))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == want


class TestExactReference:
    """Both ensembles of a linear SDE are its exact law at the grid rows
    read: no worker thread, no Euler-Maruyama run, the same refusals, and
    the moments of that law."""

    def test_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        sde, v, eps, x0 = SYMMETRIES["scaling"]
        verify_symmetry(sde, v, eps, x0=x0, seed=3, **VERIFY_SIZE)
        verify_map(OU, BROWNIAN, MAPS["paper"], x0=1.0, seed=3, **VERIFY_SIZE)
        assert started == []

    @pytest.mark.parametrize("name, simulated", [
        ("langevin", False), ("gbm", False), ("axinv", True),
        ("t-dependent", True)])
    def test_euler_maruyama_runs_for_non_linear_sdes_only(self, name,
                                                          simulated,
                                                          monkeypatch):
        # a symmetry's source, its step-halving subsample and its fresh
        # ensemble; a map's source and fresh ensemble (the identity map)
        calls = []

        def counted(*args):
            calls.append(args[0])
            return _simulate_on_grid(*args)

        monkeypatch.setattr(numeric, "_simulate_on_grid", counted)
        sde, v, eps, x0 = SYMMETRIES[name]
        verify_symmetry(sde, v, eps, x0=x0, seed=3, **VERIFY_SIZE)
        assert len(calls) == (3 if simulated else 0)
        verify_map(sde, sde, MAPS["identity"], x0=x0, seed=3, **VERIFY_SIZE)
        assert len(calls) == (5 if simulated else 0)
        assert all(c is sde for c in calls)

    @pytest.mark.parametrize("drift, diffusion", [
        ("a*x + b", "1"), ("a", "b"), ("x - x", "1"), ("a*x/x", "1"),
        ("a*x", "b*x"), ("0", "x"), ("a*x/x", "x"), ("a*x + 1", "b*x"),
        ("a/x", "1"), ("x", "1 + x"), ("t", "1"), ("x", "t*x"), ("x^2", "1")])
    def test_the_linear_rule_agrees_with_sympy(self, drift, diffusion):
        # a*x/x is the constant a: linear with diffusion 1, not GBM with x
        sde = Sde(p(drift), p(diffusion), {"a": 1.0, "b": 2.0})
        assert ((numeric._linear_law(sde) is None)
                == (linear_coefficients(sde) is None))

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_same_refusals(self, name, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        error, message = REFUSALS[name]
        with pytest.raises(error, match=message):
            _map_refusals(BROWNIAN)[name]()
        assert started == []

    @pytest.mark.parametrize("ref", [BROWNIAN, LANGEVIN, SDES["gbm"], AXINV],
                             ids=["exact", "exact-ou", "exact-gbm", "euler"])
    @pytest.mark.parametrize("y0, grid, message", [
        (0.0, [0.0, 1.0, np.inf], "time grid must be finite"),
        (0.0, [0.0, 1.0, 1.0], "time grid must be finite"),
        (np.inf, [0.0, 1.0, 2.0], "initial state inf is not finite"),
        (np.inf, [0.0, np.nan, 2.0], "time grid must be finite"),
    ])
    def test_fresh_refusals(self, ref, y0, grid, message):
        with _fresh_ensemble(ref, 4, 2, 1, [1, 2]) as fresh:
            with pytest.raises(NumericError, match=message):
                fresh(y0, np.array(grid))

    @pytest.mark.parametrize("n_paths", PATH_COUNTS)
    def test_bit_identical_to_the_reference(self, n_paths):
        # coefficients of parameters, a zero diffusion, an infinite drift,
        # and a start so large that some states overflow, on a non-uniform
        # grid from s_0 = 0.3
        grid = 0.3 + np.cumsum(np.linspace(1e-3, 3e-3, 41))
        rows = _checkpoint_indices(40)
        for sde, y0 in [(Sde(p("a"), p("-b/2"), {"a": -0.7, "b": 3.0}), 0.25),
                        (Sde(p("2"), p("0")), 0.25),
                        (Sde(p("1e308*exp(a)"), p("1"), {"a": 50.0}), 0.25),
                        (Sde(p("0"), p("1e308")), 1.7e308)]:
            with _fresh_ensemble(sde, n_paths, 40, 9, rows) as fresh:
                Z, aborted = fresh(y0, grid)
            _, want, want_aborted = reference_exact_law(
                sde, y0, grid, n_paths, philox(9 + FRESH_SEED_OFFSET))
            assert same_bits(Z, want[:, rows].T)
            assert same(aborted, want_aborted)
            assert np.all(np.isnan(Z[:, aborted]).any(axis=0))
            if y0 > 1 and n_paths == 2000:
                assert 0 < aborted.sum() < n_paths

    def test_moments(self):
        # c = -0.7, sigma = 1.5 on a non-uniform grid: each checkpoint's
        # sample mean and variance within 5 standard errors of
        # y0 + c (s_j - s_0) and sigma^2 (s_j - s_0)
        c, sigma, y0, n = -0.7, 1.5, 0.4, 20000
        sde = Sde(p("a"), p("b"), {"a": c, "b": sigma})
        grid = 0.5 + np.cumsum(np.linspace(1e-3, 9e-3, 201)) ** 2
        rows = _checkpoint_indices(200)
        with _fresh_ensemble(sde, n, 200, 17, rows) as fresh:
            Z, aborted = fresh(y0, grid)
        assert Z.shape == (len(rows), n) and not aborted.any()
        for z, k in zip(Z, rows):
            span = grid[k] - grid[0]
            var = sigma**2 * span
            assert abs(z.mean() - (y0 + c * span)) < 5 * math.sqrt(var / n)
            assert abs(z.var(ddof=1) - var) < 5 * var * math.sqrt(2 / (n - 1))

    # (sde, y0): OU with a < 0, a > 0 and a stiff a < 0 whose grid spans
    # more than 300/|a|, Brownian motion with drift, and GBM
    LINEAR = {
        "ou-decaying": (Sde(p("a*x + b"), p("3/2"), {"a": -2.0, "b": 0.5}), 0.4),
        "ou-growing": (Sde(p("a*x - b"), p("1/2"), {"a": 1.5, "b": 0.3}), 0.4),
        "ou-stiff": (Sde(p("a*x + 1"), p("b"), {"a": -700.0, "b": 2.0}), 0.4),
        "drift": (Sde(p("a"), p("b"), {"a": -0.7, "b": 1.5}), 0.4),
        "gbm": (Sde(p("a*x"), p("b*x"), {"a": 0.3, "b": 0.7}), 0.4),
    }

    @staticmethod
    def law_moments(sde, y0, span):
        """The mean and variance of the exact law at time span from y0, and
        the variance of the sample variance of one path."""
        kind, a, *rest = linear_coefficients(sde)
        if kind == "gbm":
            c, = rest
            raw = [y0**k * math.exp(k * (a - c * c / 2) * span
                                    + k * k * c * c * span / 2)
                   for k in range(5)]
            m, var = raw[1], raw[2] - raw[1] ** 2
            mu4 = raw[4] - 4 * m * raw[3] + 6 * m * m * raw[2] - 3 * m**4
            return m, var, mu4 - var**2
        b, sigma = rest
        if a == 0:
            m, var = y0 + b * span, sigma**2 * span
        else:
            m = y0 * math.exp(a * span) + b / a * math.expm1(a * span)
            var = sigma**2 * math.expm1(2 * a * span) / (2 * a)
        return m, var, 2 * var**2

    @pytest.mark.parametrize("every_row", [False, True])
    @pytest.mark.parametrize("name", sorted(LINEAR))
    def test_linear_moments(self, name, every_row):
        # each checkpoint's sample mean and variance within 5 standard
        # errors of the law's, on a non-uniform grid from s_0 = 0.5; read
        # at the checkpoints alone or at every grid time, as the
        # step-halving subsample is
        sde, y0 = self.LINEAR[name]
        n, K = 20000, 200
        grid = 0.5 + np.cumsum(np.linspace(1e-3, 9e-3, K + 1)) ** 2
        rows = list(range(K + 1)) if every_row else _checkpoint_indices(K)
        law = numeric._linear_law(sde)
        X, aborted = law(philox(17), n, y0, grid, rows)
        assert X.shape == (len(rows), n) and not aborted.any()
        for k in _checkpoint_indices(K):
            x = X[rows.index(k)]
            m, var, var_of_var = self.law_moments(sde, y0, grid[k] - grid[0])
            assert abs(x.mean() - m) < 5 * math.sqrt(var / n)
            assert abs(x.var(ddof=1) - var) < 5 * math.sqrt(var_of_var / n)

    @pytest.mark.parametrize("every_row", [False, True])
    @pytest.mark.parametrize("name", sorted(LINEAR))
    def test_linear_law_steps_as_the_reference(self, name, every_row):
        # the closed form from y0 agrees with the reference's step-by-step
        # transition to rounding, on the same normals; a start so large
        # that some GBM and growing OU states overflow reads NaN in both
        sde, _ = self.LINEAR[name]
        K = 200
        grid = 0.3 + np.cumsum(np.linspace(1e-3, 3e-2, K + 1))
        rows = list(range(K + 1)) if every_row else _checkpoint_indices(K)
        law = numeric._linear_law(sde)
        for y0 in (0.4, 1e306):
            X, aborted = law(philox(5), 500, y0, grid, rows)
            _, want, want_aborted = reference_exact_law(sde, y0, grid, 500,
                                                        philox(5), rows)
            assert same(aborted, want_aborted)
            assert np.allclose(X, want[:, rows].T, rtol=1e-10, atol=1e-12,
                               equal_nan=True)
