"""Bit identity of the step-major simulation and the flow transport.

The reference implementations below are the straightforward loops: one
Euler-Maruyama step over a (n_paths, K+1) array per grid time, and one RK4
substep over the whole (beta, J, F) arrays at a time.  The production code
must reproduce every bit of them, NaNs included.

The verifiers move paths only at the KS checkpoints.  The references
`reference_verify_symmetry` and `reference_verify_map` move every cell of
the ensemble, as the verifiers once did, and must print the same report.
Their fresh ensemble is `reference_simulate`, or `reference_exact_law`
when its drift and diffusion are constants.
"""

import math
import sys
import threading

import numpy as np
import pytest

from sdesym.determining import Sde, VectorField
from sdesym.expr import compile_fn, diff, parse, simplify, variables_of
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


def constant_coefficients(sde):
    return not (variables_of(sde.drift) or variables_of(sde.diffusion))


def reference_exact_law(sde, y0, times, n_paths, seed):
    """(times, paths, aborted) of a constant-coefficient SDE, path-major like
    reference_simulate, sampled from its exact law at the checkpoints only
    (the other cells read NaN): Z_j = y0 + c (s_j - s_0) + sigma W(s_j - s_0),
    W's increment to checkpoint j being row j of the normals of `seed`
    times the square root of the time since the checkpoint before."""
    times = np.asarray(times, dtype=float)
    cols = _checkpoint_indices(times.size - 1)
    params = sde.bound_params()
    c = float(compile_fn(sde.drift, ("t", "x"), params)(0.0, 0.0))
    sigma = float(compile_fn(sde.diffusion, ("t", "x"), params)(0.0, 0.0))
    normals = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
        (len(cols), n_paths))
    Z = np.full((n_paths, times.size), np.nan)
    W, prev = None, times[0]
    with np.errstate(all="ignore"):
        for j, k in enumerate(cols):
            dW = math.sqrt(times[k] - prev) * normals[j]
            W = dW if W is None else W + dW
            prev = times[k]
            Z[:, k] = (y0 + c * (times[k] - times[0])) + sigma * W
    aborted = ~np.all(np.isfinite(Z[:, cols]), axis=1)
    Z[:, cols] = np.where(np.isfinite(Z[:, cols]), Z[:, cols], np.nan)
    return times, Z, aborted


def reference_fresh(sde, y0, times, n_paths, seed):
    """The fresh ensemble of the verifiers, with the noise of `seed`."""
    law = reference_exact_law if constant_coefficients(sde) else reference_simulate
    return law(sde, y0, times, n_paths, seed)


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


def reference_flow_image(times, paths, aborted, v, eps, params):
    """(beta, moved paths, aborted): every cell of the path-major ensemble
    moved, with the checks of the verifier; a path is dropped, and reads
    NaN, when its image is non-finite at any grid time."""
    beta, J, F = reference_flow(v, params, eps, 64, times, paths)
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(J))):
        raise FlowError("time change is not finite at this eps")
    sub = paths[:8]
    beta2, _, sub2 = reference_flow(v, params, eps, 128, times, sub)
    with np.errstate(invalid="ignore"):
        diffs = np.abs(sub2 - F[: sub.shape[0]])
    conv = max(float(np.max(np.abs(beta - beta2))),
               float(np.max(diffs[np.isfinite(diffs)], initial=0.0)))
    if conv > 1e-8:
        raise FlowError(
            f"flow integration did not converge (step-halving difference {conv:.3e})")
    if np.any(J <= 0.0) or np.any(np.diff(beta) <= 0.0):
        raise FlowError("time change lost monotonicity at this eps")
    aborted = aborted | ~np.all(np.isfinite(F), axis=1)
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
    beta, moved, aborted = reference_flow_image(
        *simulate(sde, x0, h, K, n_paths, seed), v, eps, params)
    y0 = float(reference_flow(v, params, eps, 64, np.array(0.0),
                              np.array(x0))[2])
    _, fresh, fresh_aborted = reference_fresh(sde, y0, beta, n_paths,
                                              seed + FRESH_SEED_OFFSET)
    return reference_compare(beta, moved, aborted, fresh, fresh_aborted, seed)


def reference_verify_map(src, tgt, tmap, x0, h, K, n_paths, seed):
    params = {**src.bound_params(), **tgt.bound_params()}
    times, paths, aborted = simulate(src, x0, h, K, n_paths, seed)
    s_times = np.asarray(compile_fn(simplify(tmap.mu1), ("t",), params)(times),
                         dtype=float)
    mu2 = compile_fn(simplify(tmap.mu2), ("t", "x"), params)
    with np.errstate(all="ignore"):
        Y = np.asarray(mu2(np.broadcast_to(times, paths.shape), paths),
                       dtype=float)
        y0 = float(np.asarray(mu2(0.0, np.float64(x0)), dtype=float))
    aborted = aborted | ~np.all(np.isfinite(Y), axis=1)
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
# the fresh ensemble of Brownian motion is its exact law; Langevin's drift
# and driftless GBM's diffusion mention x, so theirs are simulated
SYMMETRIES = {
    "scaling": (BROWNIAN, VectorField(p("2*t"), p("x")), 0.2, 0.5),
    "langevin": (LANGEVIN, VectorField(phi=p("exp(a*t)")), 0.2, 1.0),
    "driftless-gbm": (Sde(p("0"), p("x")), VectorField(phi=p("x")), 0.2, 1.0),
}
OU = Sde(p("x"), p("1"))
MAPS = {
    "paper": TransformMap(parse("-1/2*exp(-2*t)"), parse("x*exp(-t)")),
    "wrong": TransformMap(parse("-1/2*exp(-2*t)"), parse("x")),
}
# (target, map, whether it maps OU onto the target): onto Brownian motion,
# whose fresh ensemble is its exact law, and onto LANGEVIN, which is OU
# itself and is simulated; Y = X + e^t solves it too, Y = 2X does not
MAP_CASES = {
    "paper": (BROWNIAN, MAPS["paper"], True),
    "wrong": (BROWNIAN, MAPS["wrong"], False),
    "langevin-shift": (LANGEVIN, TransformMap(parse("t"), parse("x + exp(t)")),
                       True),
    "langevin-wrong": (LANGEVIN, TransformMap(parse("t"), parse("2*x")), False),
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
        tgt, tmap, valid = MAP_CASES[name]
        got = verify_map(OU, tgt, tmap, x0=1.0, seed=seed, **VERIFY_SIZE)
        want = reference_verify_map(OU, tgt, tmap, 1.0, seed=seed,
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
        # or t = 1/4 (a checkpoint); the whole-grid reference drops every
        # path in both cases
        v = VectorField(p("0"), p(f"1/(t - {pole})"))
        size = {"x0": 0.0, "h": 0.125, "K": 8, "n_paths": 600, "seed": 3}
        assert verify_symmetry(BROWNIAN, v, 0.1, **size).aborted == dropped
        assert reference_verify_symmetry(BROWNIAN, v, 0.1, **size).aborted == 600


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
    """Each verifier whose fresh ensemble is simulated (here Langevin, whose
    drift mentions x) draws its noise on one worker thread and joins it on
    every path out."""

    def verifiers(self):
        sde, v, eps, x0 = SYMMETRIES["langevin"]
        tgt, tmap, _ = MAP_CASES["langevin-shift"]
        yield lambda: verify_symmetry(sde, v, eps, x0=x0, seed=3, **VERIFY_SIZE)
        yield lambda: verify_map(OU, tgt, tmap, x0=1.0, seed=3, **VERIFY_SIZE)

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
            _map_refusals(LANGEVIN)[name]()
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
    """A fresh ensemble of constant drift and diffusion is its exact law at
    the checkpoints: no worker thread, the same refusals, and the moments
    of that law."""

    def test_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        sde, v, eps, x0 = SYMMETRIES["scaling"]
        verify_symmetry(sde, v, eps, x0=x0, seed=3, **VERIFY_SIZE)
        verify_map(OU, BROWNIAN, MAPS["paper"], x0=1.0, seed=3, **VERIFY_SIZE)
        assert started == []

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_same_refusals(self, name, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", started.append)
        error, message = REFUSALS[name]
        with pytest.raises(error, match=message):
            _map_refusals(BROWNIAN)[name]()
        assert started == []

    @pytest.mark.parametrize("ref", [BROWNIAN, LANGEVIN], ids=["exact", "euler"])
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
                sde, y0, grid, n_paths, 9 + FRESH_SEED_OFFSET)
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
