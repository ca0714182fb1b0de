"""Path simulation, flows, and KS-based verification."""

import numpy as np
import pytest

from sdesym.ansatz import AnsatzError
from sdesym.determining import Sde, VectorField, stochastic_system
from sdesym.expr import parse
from sdesym.numeric import (
    FlowError,
    FlowMap,
    NumericError,
    euler_maruyama,
    flow_apply,
    ks_two_sample,
    residual_check,
    verify_map,
    verify_symmetry,
)
from sdesym.transform import TransformMap

P = ("a", "b")


def p(s):
    return parse(s, parameters=P)


BROWNIAN = Sde(p("0"), p("1"))


class TestEulerMaruyama:
    def test_deterministic_ramp(self):
        ens = euler_maruyama(Sde(p("1"), p("0")), 0.0, 0.01, 200, 4, seed=0)
        assert np.max(np.abs(ens.paths - ens.times[None, :])) < 1e-12

    def test_brownian_unit_variance(self):
        ens = euler_maruyama(BROWNIAN, 0.0, 1e-2, 100, 100_000, seed=7)
        assert 0.99 <= float(np.var(ens.final_states())) <= 1.01

    def test_ou_stationary_variance(self):
        ou = Sde(p("a*x"), p("b"), {"a": -1.0, "b": 1.0})
        ens = euler_maruyama(ou, 0.0, 1e-3, 2000, 20_000, seed=11)
        target = (1.0 - np.exp(-4.0)) / 2.0
        se = target * np.sqrt(2.0 / 20_000)
        assert abs(float(np.var(ens.final_states())) - target) < 3 * se

    def test_reproducible_bitwise(self):
        a = euler_maruyama(BROWNIAN, 0.5, 1e-2, 50, 64, seed=3)
        b = euler_maruyama(BROWNIAN, 0.5, 1e-2, 50, 64, seed=3)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.increments, b.increments)
        c = euler_maruyama(BROWNIAN, 0.5, 1e-2, 50, 64, seed=4)
        assert not np.array_equal(a.paths, c.paths)

    def test_singularity_aborts_paths(self):
        # log drift is undefined for x <= 0: paths crossing zero must be
        # flagged and frozen, the rest stay finite
        sde = Sde(p("log(x)"), p("1"))
        ens = euler_maruyama(sde, 0.5, 1e-2, 300, 500, seed=5)
        assert ens.aborted.any()
        assert not ens.aborted.all()
        assert np.all(np.isfinite(ens.paths[~ens.aborted]))
        assert np.all(np.isnan(ens.paths[ens.aborted, -1]))

    def test_invalid_step(self):
        with pytest.raises(NumericError):
            euler_maruyama(BROWNIAN, 0.0, -0.1, 10, 2, seed=0)


class TestResidualCheck:
    def test_brownian_pure_stochastic_generator(self):
        ds = stochastic_system(BROWNIAN, VectorField(phitilde=p("1")))
        rep = residual_check(ds)
        assert rep.passed and rep.max_abs < 1e-12

    def test_time_drift_candidate_fails(self):
        ds = stochastic_system(BROWNIAN, VectorField(phi=p("t")))
        rep = residual_check(ds)
        assert not rep.passed
        assert rep.max_abs == pytest.approx(1.0)

    def test_wrong_phitilde_on_inverse_drift(self):
        sde = Sde(p("a/x"), p("1"), {"a": 1.0})
        ds = stochastic_system(sde, VectorField(phitilde=p("1")))
        rep = residual_check(ds, {"a": 1.0}, window=(0.1, 2.0, 0.5, 2.0))
        assert not rep.passed
        # row (ii) = f_x * 1 = -a/x^2: largest magnitude near the window's
        # x-minimum 0.5 (row (i) separately carries the a/x^3 term)
        assert 1.0 < rep.per_residual[1] <= 1.0 / 0.5 ** 2
        assert rep.max_abs >= rep.per_residual[1]

    def test_non_finite_everywhere_never_passes(self):
        ds = stochastic_system(BROWNIAN, VectorField(phi=p("1e-12*(-x)^(1/2)")))
        with pytest.raises(AnsatzError, match="could not sample"):
            residual_check(ds)

    def test_report_format(self):
        ds = stochastic_system(BROWNIAN, VectorField(phitilde=p("1")))
        text = residual_check(ds).to_kv()
        assert "residual.pass = true" in text


class TestFlow:
    def test_time_translation(self):
        ens = euler_maruyama(BROWNIAN, 0.0, 1e-2, 100, 32, seed=3)
        fm, moved = flow_apply(ens, VectorField(tau=p("1")), 0.3)
        assert np.max(np.abs(moved.times - (ens.times + 0.3))) < 1e-10
        assert np.max(np.abs(moved.paths - ens.paths)) == 0.0

    def test_scaling_flow_closed_form(self):
        ens = euler_maruyama(BROWNIAN, 0.4, 1e-2, 100, 32, seed=3)
        v = VectorField(p("2*t"), p("x"))
        fm, moved = flow_apply(ens, v, 0.2)
        assert np.max(np.abs(moved.times - np.exp(0.4) * ens.times)) < 1e-9
        assert np.max(np.abs(moved.paths - np.exp(0.2) * ens.paths)) < 1e-9

    def test_eps_zero_identity(self):
        ens = euler_maruyama(BROWNIAN, 0.0, 1e-2, 50, 16, seed=9)
        _, moved = flow_apply(ens, VectorField(p("2*t"), p("x")), 0.0)
        assert np.array_equal(moved.paths, ens.paths)
        assert np.array_equal(moved.times, ens.times)

    def test_invertibility(self):
        ens = euler_maruyama(BROWNIAN, 0.2, 1e-2, 80, 24, seed=13)
        v = VectorField(p("2*t"), p("x"))
        _, fwd = flow_apply(ens, v, 0.35)
        _, back = flow_apply(fwd, v, -0.35)
        assert np.max(np.abs(back.paths - ens.paths)) < 1e-6
        assert np.max(np.abs(back.times - ens.times)) < 1e-6

    def test_eta_sq_equals_dbeta_dt(self):
        fm = FlowMap(0.2, VectorField(p("2*t"), p("x")), {})
        for t in (0.1, 0.8, 1.7):
            eta2 = float(fm.eta_sq(np.array([t]))[0])
            d = 1e-5
            ends = fm.beta(np.array([t - d, t + d]))
            fd = float(ends[1] - ends[0]) / (2 * d)
            assert abs(eta2 - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_alpha_inverts_beta(self):
        fm = FlowMap(0.15, VectorField(p("2*t"), p("x")), {})
        for t in (0.3, 1.1):
            s = float(fm.beta(np.array([t]))[0])
            assert fm.alpha(s) == pytest.approx(t, abs=1e-9)

    def test_rejects_stochastic_generator(self):
        ens = euler_maruyama(BROWNIAN, 0.0, 1e-2, 10, 4, seed=1)
        with pytest.raises(FlowError):
            flow_apply(ens, VectorField(phitilde=p("1")), 0.1)

    def test_monotonicity_loss_detected(self):
        # tau < 0 shrinks times; beta stays increasing in t, but a huge eps
        # with tau = -t collapses the grid towards 0 monotonically, so use
        # a field whose variational factor changes sign instead
        ens = euler_maruyama(BROWNIAN, 0.0, 1e-1, 10, 4, seed=1)
        with pytest.raises(FlowError):
            # dbeta/dr = -3*beta + 2: fixed point 2/3 attracts all nodes;
            # at large eps the grid degenerates and loses strict monotonicity
            flow_apply(ens, VectorField(tau=p("2 - 3*t")), 12.0)


class TestKS:
    def test_self_test_pass_rate(self):
        # fresh ensembles of the same SDE with different seeds should pass
        hits = 0
        for rep in range(100):
            e1 = euler_maruyama(BROWNIAN, 0.0, 5e-3, 200, 800, seed=900 + rep)
            e2 = euler_maruyama(BROWNIAN, 0.0, 5e-3, 200, 800, seed=7900 + rep)
            ok = True
            for k in (50, 100, 150, 200):
                _, pv = ks_two_sample(e1.paths[:, k], e2.paths[:, k])
                ok &= pv > 0.01
            hits += ok
        assert hits >= 95

    def test_detects_mean_shift(self):
        e1 = euler_maruyama(BROWNIAN, 0.0, 5e-3, 200, 2000, seed=1)
        e2 = euler_maruyama(BROWNIAN, 0.5, 5e-3, 200, 2000, seed=2)
        _, pv = ks_two_sample(e1.paths[:, -1], e2.paths[:, -1])
        assert pv < 1e-6


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

    def test_report_kv_format(self):
        rep = verify_map(self.SRC, BROWNIAN, self.PAPER, x0=1.0, h=1e-3,
                         K=500, n_paths=800, seed=2)
        text = rep.to_kv()
        assert "checkpoint.4.p_value" in text
        assert "pass =" in text
