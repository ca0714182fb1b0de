"""Path simulation, flows, and KS-based verification."""

import math

import numpy as np
import pytest

from sdesym.ansatz import AnsatzError
from sdesym.determining import Sde, VectorField, build_system
from sdesym.expr import parse
from sdesym.numeric import (
    FlowError,
    NumericError,
    ParameterClashError,
    _flow_image,
    _kolmogorov_sf,
    _simulate_uniform,
    ks_two_sample,
    residual_check,
    verify_map,
    verify_symmetry,
)
from sdesym.transform import TransformMap

from conftest import time_change

P = ("a", "b")


def p(s):
    return parse(s, parameters=P)


BROWNIAN = Sde(p("0"), p("1"))


def simulate(sde, x0, h, K, n_paths, seed):
    """(times, X, aborted): every path at every grid time, one row of X per
    grid time."""
    return _simulate_uniform(sde, x0, h, K, n_paths, seed, range(K + 1))


def move(v, eps, times, X, aborted):
    """_flow_image of every cell of a simulated ensemble, with the first 8
    paths as the step-halving subsample."""
    return _flow_image(v, eps, {}, times, X[:, :8].copy(), slice(None), X,
                       aborted)


class TestEulerMaruyama:
    def test_deterministic_ramp(self):
        times, X, _ = simulate(Sde(p("1"), p("0")), 0.0, 0.01, 200, 4, seed=0)
        assert np.max(np.abs(X - times[:, None])) < 1e-12

    def test_brownian_unit_variance(self):
        _, X, aborted = simulate(BROWNIAN, 0.0, 1e-2, 100, 100_000, seed=7)
        assert 0.99 <= float(np.var(X[-1, ~aborted])) <= 1.01

    def test_ou_stationary_variance(self):
        ou = Sde(p("a*x"), p("b"), {"a": -1.0, "b": 1.0})
        _, X, aborted = simulate(ou, 0.0, 1e-3, 2000, 20_000, seed=11)
        target = (1.0 - np.exp(-4.0)) / 2.0
        se = target * np.sqrt(2.0 / 20_000)
        assert abs(float(np.var(X[-1, ~aborted])) - target) < 3 * se

    def test_reproducible_bitwise(self):
        a = simulate(BROWNIAN, 0.5, 1e-2, 50, 64, seed=3)[1]
        b = simulate(BROWNIAN, 0.5, 1e-2, 50, 64, seed=3)[1]
        assert np.array_equal(a, b)
        c = simulate(BROWNIAN, 0.5, 1e-2, 50, 64, seed=4)[1]
        assert not np.array_equal(a, c)

    def test_path_noise_independent_of_path_count(self):
        # path i's increments depend on (seed, i, K), not on n_paths
        few = simulate(BROWNIAN, 0.5, 1e-2, 50, 8, seed=3)[1]
        many = simulate(BROWNIAN, 0.5, 1e-2, 50, 64, seed=3)[1]
        assert np.array_equal(few, many[:, :8])

    def test_singularity_aborts_paths(self):
        # log drift is undefined for x <= 0: paths crossing zero must be
        # flagged and frozen, the rest stay finite
        sde = Sde(p("log(x)"), p("1"))
        _, X, aborted = simulate(sde, 0.5, 1e-2, 300, 500, seed=5)
        assert aborted.any()
        assert not aborted.all()
        assert np.all(np.isfinite(X[:, ~aborted]))
        assert np.all(np.isnan(X[-1, aborted]))

    def test_invalid_step(self):
        with pytest.raises(NumericError):
            simulate(BROWNIAN, 0.0, -0.1, 10, 2, seed=0)


class TestResidualCheck:
    def test_brownian_pure_stochastic_generator(self):
        ds = build_system(BROWNIAN, VectorField(phitilde=p("1")), "stochastic")
        rep = residual_check(ds)
        assert rep.passed and rep.max_abs < 1e-12

    def test_time_drift_candidate_fails(self):
        ds = build_system(BROWNIAN, VectorField(phi=p("t")), "stochastic")
        rep = residual_check(ds)
        assert not rep.passed
        assert rep.max_abs == pytest.approx(1.0)

    def test_wrong_phitilde_on_inverse_drift(self):
        sde = Sde(p("a/x"), p("1"), {"a": 1.0})
        ds = build_system(sde, VectorField(phitilde=p("1")), "stochastic")
        rep = residual_check(ds, {"a": 1.0}, window=(0.1, 2.0, 0.5, 2.0))
        assert not rep.passed
        # row (ii) = f_x * 1 = -a/x^2: largest magnitude near the window's
        # x-minimum 0.5 (row (i) separately carries the a/x^3 term)
        assert 1.0 < rep.per_residual[1] <= 1.0 / 0.5 ** 2
        assert rep.max_abs >= rep.per_residual[1]

    def test_non_finite_everywhere_never_passes(self):
        ds = build_system(BROWNIAN, VectorField(phi=p("1e-12*(-x)^(1/2)")), "stochastic")
        with pytest.raises(AnsatzError, match="could not sample"):
            residual_check(ds)

    def test_report_format(self):
        ds = build_system(BROWNIAN, VectorField(phitilde=p("1")), "stochastic")
        text = residual_check(ds).to_kv()
        assert "residual.pass = true" in text


class TestFlow:
    def test_time_translation(self):
        times, X, aborted = simulate(BROWNIAN, 0.0, 1e-2, 100, 32, seed=3)
        beta, moved, _ = move(VectorField(tau=p("1")), 0.3, times, X, aborted)
        assert np.max(np.abs(beta - (times + 0.3))) < 1e-10
        assert np.max(np.abs(moved - X)) == 0.0

    def test_scaling_flow_closed_form(self):
        times, X, aborted = simulate(BROWNIAN, 0.4, 1e-2, 100, 32, seed=3)
        v = VectorField(p("2*t"), p("x"))
        beta, moved, _ = move(v, 0.2, times, X, aborted)
        assert np.max(np.abs(beta - np.exp(0.4) * times)) < 1e-9
        assert np.max(np.abs(moved - np.exp(0.2) * X)) < 1e-9

    def test_stochastic_generator_refused_by_both_users(self):
        # the message names the flow, which verify_symmetry runs as well
        v = VectorField(p("2*t"), p("x"), p("x"))
        ens = simulate(BROWNIAN, 0.5, 1e-2, 10, 4, seed=1)
        for call in (lambda: move(v, 0.1, *ens),
                     lambda: verify_symmetry(BROWNIAN, v, 0.1, x0=0.5, h=1e-2,
                                             K=10, n_paths=4, seed=1)):
            with pytest.raises(FlowError) as err:
                call()
            assert str(err.value) == ("the flow is simulated for deterministic "
                                      "generators only (phitilde must vanish)")

    def test_eps_zero_identity(self):
        times, X, aborted = simulate(BROWNIAN, 0.0, 1e-2, 50, 16, seed=9)
        beta, moved, _ = move(VectorField(p("2*t"), p("x")), 0.0, times, X,
                              aborted)
        assert np.array_equal(moved, X)
        assert np.array_equal(beta, times)

    def test_invertibility(self):
        times, X, aborted = simulate(BROWNIAN, 0.2, 1e-2, 80, 24, seed=13)
        v = VectorField(p("2*t"), p("x"))
        fwd = move(v, 0.35, times, X, aborted)
        back_times, back, _ = move(v, -0.35, *fwd)
        assert np.max(np.abs(back - X)) < 1e-6
        assert np.max(np.abs(back_times - times)) < 1e-6

    def test_eta_sq_equals_dbeta_dt(self):
        # J, the variational factor, is the squared time-change density
        v = VectorField(p("2*t"), p("x"))
        for t in (0.1, 0.8, 1.7):
            eta2 = float(time_change(v, {}, 0.2, np.array([t]))[1][0])
            d = 1e-5
            ends = time_change(v, {}, 0.2, np.array([t - d, t + d]))[0]
            fd = float(ends[1] - ends[0]) / (2 * d)
            assert abs(eta2 - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_rejects_stochastic_generator(self):
        ens = simulate(BROWNIAN, 0.0, 1e-2, 10, 4, seed=1)
        with pytest.raises(FlowError):
            move(VectorField(phitilde=p("1")), 0.1, *ens)

    def test_monotonicity_loss_detected(self):
        # tau < 0 shrinks times; beta stays increasing in t, but a huge eps
        # with tau = -t collapses the grid towards 0 monotonically, so use
        # a field whose variational factor changes sign instead
        ens = simulate(BROWNIAN, 0.0, 1e-1, 10, 4, seed=1)
        with pytest.raises(FlowError):
            # dbeta/dr = -3*beta + 2: fixed point 2/3 attracts all nodes;
            # at large eps the grid degenerates and loses strict monotonicity
            move(VectorField(tau=p("2 - 3*t")), 12.0, *ens)


class TestKS:
    def test_self_test_pass_rate(self):
        # fresh ensembles of the same SDE with different seeds should pass
        hits = 0
        for rep in range(100):
            e1 = simulate(BROWNIAN, 0.0, 5e-3, 200, 800, seed=900 + rep)[1]
            e2 = simulate(BROWNIAN, 0.0, 5e-3, 200, 800, seed=7900 + rep)[1]
            ok = True
            for k in (50, 100, 150, 200):
                _, pv = ks_two_sample(e1[k], e2[k])
                ok &= pv > 0.01
            hits += ok
        assert hits >= 95

    def test_detects_mean_shift(self):
        e1 = simulate(BROWNIAN, 0.0, 5e-3, 200, 2000, seed=1)[1]
        e2 = simulate(BROWNIAN, 0.5, 5e-3, 200, 2000, seed=2)[1]
        _, pv = ks_two_sample(e1[-1], e2[-1])
        assert pv < 1e-6


    def test_empty_sample_gives_nan(self):
        stat, pv = ks_two_sample(np.array([]), np.array([1.0, 2.0]))
        assert math.isnan(stat) and math.isnan(pv)
        assert not pv > 0.01

    @pytest.mark.parametrize("n1, n2", [(100, 100), (1500, 1500),
                                        (2000, 2000), (1990, 2000)])
    def test_matches_scipy_ks_2samp(self, n1, n2):
        # oracle: scipy's two-sample KS test with the finite-n p-value
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(n1 + n2)
        for shift in (0.0, 0.03, 0.06, 0.1, 0.2, 0.4):
            a = rng.standard_normal(n1)
            b = rng.standard_normal(n2) + shift
            ref = ks_2samp(a, b, method="asymp")
            stat, pv = ks_two_sample(a, b)
            assert stat == ref.statistic
            assert abs(pv - ref.pvalue) <= 1e-5

    @pytest.mark.parametrize("n", [50, 141, 750, 1000])
    def test_kolmogorov_tail_matches_kstwo(self, n):
        # oracle: scipy's finite-n Kolmogorov distribution, on a grid that
        # reaches d <= 1/(2n), both sides of n d^2 = 2.2, d >= 1/2 and d = 1
        from scipy.stats import kstwo

        grid = np.concatenate([np.linspace(0.0, 1.0, 401),
                               [0.25 / n, 0.5 / n, 1.0 / n, math.sqrt(2.2 / n),
                                0.5, 1.0 - 1.0 / n]])
        for d in grid:
            got, want = _kolmogorov_sf(n, float(d)), float(kstwo.sf(d, n))
            assert abs(got - want) <= 1e-5, d
            assert (got > 0.01) == (want > 0.01), d
        assert _kolmogorov_sf(n, 0.5 / n) == 1.0
        assert _kolmogorov_sf(n, 1.0) == 0.0


class TestVerifySymmetry:
    def test_translation_invariance(self):
        rep = verify_symmetry(BROWNIAN, VectorField(phi=p("1")), 1.0,
                              x0=0.0, h=1e-3, K=600, n_paths=1500, seed=5)
        assert rep.passed

    def test_scaling_invariance(self):
        rep = verify_symmetry(BROWNIAN, VectorField(p("2*t"), p("x")), 0.2,
                              x0=0.0, h=1e-3, K=600, n_paths=1500, seed=6)
        assert rep.passed

    def test_bogus_field_fails(self):
        rep = verify_symmetry(BROWNIAN, VectorField(phi=p("t")), 0.5,
                              x0=0.0, h=1e-3, K=600, n_paths=1500, seed=7)
        assert not rep.passed

    def test_langevin_exponential_translation(self):
        lg = Sde(p("a*x"), p("b"), {"a": 1.0, "b": 1.0})
        rep = verify_symmetry(lg, VectorField(phi=p("exp(a*t)")), 0.4,
                              x0=1.0, h=1e-3, K=600, n_paths=1500, seed=8)
        assert rep.passed

    def test_flow_not_converged_refused(self):
        # F grows as exp(30 r): at eps = 0.2, 64 RK4 substeps of 0.094 in
        # 30 r differ from 128 by more than 1e-8
        with pytest.raises(FlowError, match="flow integration did not converge"):
            verify_symmetry(BROWNIAN, VectorField(p("0"), p("30*x")), 0.2,
                            x0=1.0, h=1e-2, K=100, n_paths=16, seed=1)

    def test_exact_symmetry_passes_with_one_low_checkpoint(self):
        # an exact symmetry (every residual is 0) whose first checkpoint
        # falls below 0.01 by chance: the gate divides p_threshold by the
        # number of checkpoints, so the four tests together refuse a true
        # symmetry at most 1% of seeds
        lg = Sde(p("a*x"), p("b"), {"a": 1.0, "b": 1.0})
        rep = verify_symmetry(lg, VectorField(phi=p("exp(a*t)")), 0.2,
                              x0=1.0, h=1e-3, K=1000, n_paths=2000, seed=168)
        assert len(rep.checkpoints) == 4
        assert rep.p_threshold / 4 < rep.checkpoints[0].p_value < rep.p_threshold
        assert rep.passed
        assert "p_threshold = 0.01" in rep.to_kv()


class TestVerifyMap:
    SRC = Sde(p("x"), p("1"))
    PAPER = TransformMap(parse("-1/2*exp(-2*t)"), parse("x*exp(-t)"))
    WRONG = TransformMap(parse("-1/2*exp(-2*t)"), parse("x"))

    def test_identity_map(self):
        ident = TransformMap(parse("t"), parse("x"))
        rep = verify_map(BROWNIAN, BROWNIAN, ident, x0=0.0, h=1e-3, K=800,
                         n_paths=1500, seed=4)
        assert rep.passed

    def test_paper_map_passes(self):
        rep = verify_map(self.SRC, BROWNIAN, self.PAPER, x0=1.0, h=1e-3,
                         K=1000, n_paths=2000, seed=0)
        assert rep.passed
        assert len(rep.checkpoints) == 4

    def test_wrong_map_fails_late_checkpoint(self):
        rep = verify_map(self.SRC, BROWNIAN, self.WRONG, x0=1.0, h=1e-3,
                         K=1000, n_paths=2000, seed=0)
        assert not rep.passed
        assert rep.checkpoints[-1].p_value < 0.01

    def test_non_monotone_mu1_rejected(self):
        bad = TransformMap(parse("-t"), parse("x"))
        with pytest.raises(NumericError, match="increasing"):
            verify_map(self.SRC, BROWNIAN, bad, x0=1.0, h=1e-3, K=100,
                       n_paths=100, seed=0)

    def test_x_dependent_mu1_rejected(self):
        bad = TransformMap(parse("t + x"), parse("x"))
        with pytest.raises(NumericError, match="t only"):
            verify_map(self.SRC, BROWNIAN, bad, x0=1.0, h=1e-3, K=100,
                       n_paths=100, seed=0)

    def test_clashing_parameter_refused_before_simulation(self, monkeypatch):
        # the map is read against the source's alpha; a target that binds
        # alpha to another value would evaluate it at the target's
        src = Sde(parse("alpha*x", parameters=("alpha",)), p("1"), {"alpha": 1.0})
        tgt = Sde(p("0"), p("1"), {"alpha": 3.0})
        tmap = TransformMap(parse("-exp(-2*alpha*t)/(2*alpha)", parameters=("alpha",)),
                            parse("x*exp(-alpha*t)", parameters=("alpha",)))
        import sdesym.numeric as numeric

        # the source alpha*x is linear, so it would be drawn from its exact law
        for name in ("_simulate_uniform", "_linear_law"):
            monkeypatch.setattr(numeric, name, lambda *a: pytest.fail())
        with pytest.raises(ParameterClashError) as err:
            verify_map(src, tgt, tmap, x0=1.0, h=1e-3, K=100, n_paths=100, seed=0)
        assert isinstance(err.value, NumericError)
        assert str(err.value) == ("parameter alpha is 1.0 in the source and "
                                  "3.0 in the target")
        monkeypatch.undo()
        same = Sde(p("0"), p("1"), {"alpha": 1.0, "b": 2.0})
        assert verify_map(src, same, tmap, x0=1.0, h=1e-3, K=1000,
                          n_paths=1000, seed=0).passed

    def test_report_kv_format(self):
        rep = verify_map(self.SRC, BROWNIAN, self.PAPER, x0=1.0, h=1e-3,
                         K=500, n_paths=800, seed=2)
        text = rep.to_kv()
        assert "checkpoint.4.p_value" in text
        assert "pass =" in text
