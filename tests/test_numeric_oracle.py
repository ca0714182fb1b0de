"""Bit identity of the step-major simulation and the blocked flow transport.

The reference implementations below are the straightforward loops: one
Euler-Maruyama step over a (n_paths, K+1) array per grid time, and one RK4
substep over the whole (beta, J, F) arrays at a time.  The production code
must reproduce every bit of them, NaNs included.
"""

import numpy as np
import pytest

from sdesym.determining import Sde, VectorField
from sdesym.expr import compile_fn, diff, parse
from sdesym.numeric import (
    _FLOW_BLOCK_CELLS,
    FlowError,
    NumericError,
    _flow_integrate,
    _simulate_on_grid,
    euler_maruyama,
    flow_apply,
)

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


def same(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


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
# path counts around the flow's block height on a row-major (n_paths,
# K_LONG+1) array; on the step-major layout, BLOCK_ROWS + 1 and 2000 paths
# end in a partial block of grid times
BLOCK_ROWS = _FLOW_BLOCK_CELLS // (K_LONG + 1)
PATH_COUNTS = (1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 2000)

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
        ens = euler_maruyama(SDES[name], 0.5, 1e-3 if n_paths == 2000 else 1e-2,
                             K, n_paths, seed=11)
        times, X, aborted = reference_simulate(SDES[name], 0.5, ens.times,
                                               n_paths, 11)
        assert same(ens.times, times)
        assert same(ens.paths, X)
        assert same(ens.aborted, aborted)

    @pytest.mark.parametrize("name", ["aborting", "overflowing"])
    def test_aborted_paths_are_nan(self, name):
        ens = euler_maruyama(SDES[name], 0.5, 1e-2, 300, 500, seed=5)
        assert 0 < ens.aborted.sum() < 500
        assert np.all(np.isnan(ens.paths[ens.aborted, -1]))
        ref = reference_simulate(SDES[name], 0.5, ens.times, 500, 5)
        assert same(ens.paths, ref[1]) and same(ens.aborted, ref[2])

    def test_non_uniform_grid(self):
        grid = np.cumsum(np.linspace(1e-3, 3e-3, 200))
        ens = _simulate_on_grid(SDES["t-dependent"], 1.0, grid, 64, 3)
        ref = reference_simulate(SDES["t-dependent"], 1.0, grid, 64, 3)
        assert same(ens.paths, ref[1])

    def test_shapes(self):
        ens = euler_maruyama(BROWNIAN, 0.0, 1e-2, 50, 7, seed=1)
        assert ens.paths.shape == (7, 51)
        assert ens.aborted.shape == (7,)
        assert (ens.n_paths, ens.n_steps) == (7, 50)


class TestFlowOracle:
    @pytest.mark.parametrize("name, n_paths, eps", FLOW_CASES)
    def test_flow_integrate_bit_identical(self, name, n_paths, eps):
        K = K_LONG if n_paths in (2000, BLOCK_ROWS + 1) else 200
        ens = euler_maruyama(BROWNIAN, 0.5, 1e-3, K, n_paths, seed=7)
        params = {"a": 1.0}
        # step-major ensembles (transposed paths) and row-major copies are
        # blocked along different axes
        for paths in (ens.paths, np.ascontiguousarray(ens.paths)):
            got = _flow_integrate(FIELDS[name], params, eps, 64, ens.times, paths)
            want = reference_flow(FIELDS[name], params, eps, 64, ens.times, paths)
            for g, w in zip(got, want):
                assert same(g, w)

    def test_flow_apply_on_aborted_paths(self):
        ens = euler_maruyama(SDES["aborting"], 0.5, 1e-2, 300, 200, seed=5)
        assert ens.aborted.any()
        moved = flow_apply(ens, FIELDS["scaling"], 0.1)
        beta, _, F = reference_flow(FIELDS["scaling"], {}, 0.1, 64,
                                    ens.times, ens.paths)
        aborted = ens.aborted | ~np.all(np.isfinite(F), axis=1)
        assert same(moved.times, beta)
        assert same(moved.aborted, aborted)
        assert same(moved.paths, np.where(aborted[:, None], np.nan, F))
        assert moved.paths.shape == ens.paths.shape

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_flow_map_points(self, name):
        t = np.linspace(0.1, 1.0, 7)
        x = np.linspace(-1.0, 2.0, 7)
        beta, J, F = _flow_integrate(FIELDS[name], {"a": 1.0}, 0.2, 64, t, x)
        want = reference_flow(FIELDS[name], {"a": 1.0}, 0.2, 64, t, x)
        assert same(F, want[2])
        assert same(beta, want[0])
        assert same(J, want[1])
        # a single point, as verify_symmetry moves the initial state
        scalar = reference_flow(FIELDS[name], {"a": 1.0}, 0.2, 64,
                                np.array(0.3), np.array(1.2))[2]
        got = _flow_integrate(FIELDS[name], {"a": 1.0}, 0.2, 64, 0.3, 1.2)[2]
        assert same(np.asarray(got), scalar)


class TestNonFiniteTimes:
    def test_blown_up_time_change_is_refused(self):
        # d(beta)/dr = beta^2 reaches infinity before r = 1.5 for t >= 2/3
        ens = euler_maruyama(BROWNIAN, 0.0, 1e-2, 100, 16, seed=1)
        with pytest.raises(FlowError, match="not finite"):
            flow_apply(ens, VectorField(p("t^2"), p("x")), 1.5)

    @pytest.mark.parametrize("grid", [[0.0, 1.0, np.inf], [0.0, np.inf, np.inf],
                                      [0.0, np.nan, 1.0], [-np.inf, 0.0, 1.0]])
    def test_non_finite_grid_is_refused(self, grid):
        with pytest.raises(NumericError, match="finite"):
            _simulate_on_grid(BROWNIAN, 0.0, np.array(grid), 4, 0)
