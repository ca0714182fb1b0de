"""Map conditions and map solving for the affine-to-Brownian example."""

import numpy as np
import pytest

from sdesym.ansatz import Ansatz, max_residual, sample_points, solve_symmetries
from sdesym.determining import Sde, VectorField
from sdesym.expr import diff, parse, simplify
from sdesym.lie import apply_match, match_basis, structure_constants
from sdesym.transform import (
    NoMapError,
    PairedSymmetries,
    TransformError,
    TransformMap,
    _monotone_mu1,
    solve_map,
    transformation_system,
)

from conftest import evaluate, time_change

PA = ("alpha", "beta")


def p(s):
    return parse(s, parameters=PA)


def matched_pairs(alpha, beta):
    """Source fields of dX = (alpha X + beta)dt + dW matched against the
    Brownian targets, in the change of basis the matcher recovers."""
    X2 = VectorField(p("exp(2*alpha*t)"), p("(alpha*x + beta)*exp(2*alpha*t)"))
    X1_scaled = VectorField(tau=p("-1/alpha"))
    X3 = VectorField(phi=p("exp(alpha*t)"))
    targets = [VectorField(tau=p("1")), VectorField(p("2*t"), p("x")),
               VectorField(phi=p("1"))]
    return PairedSymmetries.from_tx(list(zip([X2, X1_scaled, X3], targets)))


def paper_map():
    return TransformMap(p("-exp(-2*alpha*t)/(2*alpha)"),
                        p("exp(-alpha*t)*(x + beta/alpha)"))


MU1_BASIS = (p("1"), p("exp(-2*alpha*t)"))
MU2_BASIS = (p("x*exp(-alpha*t)"), p("exp(-alpha*t)"), p("x"), p("1"))


class TestTransformationSystem:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_paper_map_solves_system(self, alpha, beta):
        params = {"alpha": alpha, "beta": beta}
        tmap = paper_map()
        system = transformation_system(matched_pairs(alpha, beta),
                                       tmap.mu1, tmap.mu2)
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            env = dict(params)
            env["t"] = float(rng.uniform(0.0, 1.5))
            env["x"] = float(rng.uniform(0.5, 2.0))
            for r in system.residuals:
                worst = max(worst, abs(evaluate(r, env)))
        assert worst < 1e-10

    def test_translation_pair_rows(self):
        pairs = PairedSymmetries.from_tx(
            [(VectorField(tau=p("1")), VectorField(tau=p("1")))])
        system = transformation_system(pairs, p("t"), p("x"))
        # rows: 1 - mu1_t = 0 and -mu2_t = 0 hold for mu = (t, x)
        assert all(simplify(r).is_zero() for r in system.residuals)

    def test_exponential_pair_rows(self):
        # pair (e^{alpha t} d/dx, d/dy): residuals e^{alpha t} mu1_x and
        # 1 - e^{alpha t} mu2_x
        pairs = PairedSymmetries.from_tx(
            [(VectorField(phi=p("exp(alpha*t)")), VectorField(phi=p("1")))])
        sysA = transformation_system(pairs, p("t"), p("x"))
        env = {"alpha": 1.3, "t": 0.4, "x": 0.9}
        vals = [evaluate(r, env) for r in sysA.residuals]
        assert vals[0] == pytest.approx(0.0)            # rho o mu - 0
        assert vals[2] == pytest.approx(1.0 - np.exp(1.3 * 0.4))

    def test_phitilde_rows(self):
        # stochastic source generator: second row is mu1_x * phitilde
        pairs = PairedSymmetries.from_tx(
            [(VectorField(phitilde=p("1")), VectorField(phitilde=p("1")))])
        system = transformation_system(pairs, p("t + x"), p("x"))
        env = {"t": 0.3, "x": 0.7}
        assert evaluate(system.residuals[1], env) == pytest.approx(1.0)
        assert evaluate(system.residuals[3], env) == pytest.approx(0.0)

    def test_rejects_bad_target_variables(self):
        with pytest.raises(TransformError, match="undeclared"):
            PairedSymmetries(((VectorField(tau=p("1")),
                               VectorField(tau=p("t"))),))


class TestSolveMap:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.0, 2.0), (0.5, 1.0)])
    def test_recovers_published_map(self, alpha, beta):
        params = {"alpha": alpha, "beta": beta}
        tmap = solve_map(matched_pairs(alpha, beta), MU1_BASIS, MU2_BASIS,
                         params=params, window=(0.0, 1.0, 0.5, 2.0))
        ref = paper_map()
        rng = np.random.default_rng(11)
        for _ in range(50):
            env = dict(params)
            env["t"] = float(rng.uniform(0, 1))
            env["x"] = float(rng.uniform(0.5, 2))
            assert evaluate(tmap.mu1, env) == pytest.approx(
                evaluate(ref.mu1, env), abs=1e-9)
            assert evaluate(tmap.mu2, env) == pytest.approx(
                evaluate(ref.mu2, env), abs=1e-9)

    def test_identity_problem_gauge(self):
        # source == target == Brownian with pairs (v, v): mu = (t + c, x);
        # the scaling pair forces c = 0
        fields = [VectorField(tau=p("1")), VectorField(p("2*t"), p("x")),
                  VectorField(phi=p("1"))]
        pairs = PairedSymmetries.from_tx([(v, v) for v in fields])
        tmap = solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")),
                         params={}, window=(0.1, 1.0, 0.5, 2.0))
        assert simplify(tmap.mu1) == parse("t")
        assert simplify(tmap.mu2) == parse("x")

    def test_translation_only_minimum_norm(self):
        # pairs (d/dt, d/ds) and (d/dx, d/dy): mu = (t + c1, x + c2);
        # minimum norm picks c1 = c2 = 0
        pairs = PairedSymmetries.from_tx(
            [(VectorField(tau=p("1")), VectorField(tau=p("1"))),
             (VectorField(phi=p("1")), VectorField(phi=p("1")))])
        tmap = solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")),
                         params={}, window=(0.1, 1.0, 0.5, 2.0))
        assert simplify(tmap.mu1) == parse("t")
        assert simplify(tmap.mu2) == parse("x")

    def test_map_constant_in_x_refused(self):
        # (d/dt, d/ds) alone leaves mu2 = c1 + c2*x free: the minimum norm
        # gauge gives mu2 = 0, which no x-invertible map has
        pairs = PairedSymmetries.from_tx(
            [(VectorField(tau=p("1")), VectorField(tau=p("1")))])
        with pytest.raises(TransformError, match="mu2 is not invertible in x"):
            solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")),
                      params={}, window=(0.1, 1.0, 0.5, 2.0))

    def test_pinned_value(self):
        pairs = PairedSymmetries.from_tx(
            [(VectorField(tau=p("1")), VectorField(tau=p("1")))])
        tmap = solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")),
                         params={}, window=(0.1, 1.0, 0.5, 2.0),
                         pin=(0.0, 1.0, 5.0, 1.0))
        env = {"t": 0.0, "x": 1.0}
        assert evaluate(tmap.mu1, env) == pytest.approx(5.0)

    def test_incompatible_pin_refused(self):
        # the pair (X2, d/dt) of the affine example fixes mu1 = -1/2*exp(-2t)
        # up to a constant, so mu1(0, 1) = 5 and mu2(0, 1) = 7 cannot hold
        # together with the other pairs; the pin is refused, not dropped
        with pytest.raises(NoMapError, match=r"pin mu\(0, 1\) = \(5, 7\) is "
                                             r"incompatible .* \(residual "):
            solve_map(matched_pairs(1.0, 0.0), MU1_BASIS, MU2_BASIS,
                      params={"alpha": 1.0, "beta": 0.0},
                      window=(0.0, 1.0, 0.5, 2.0), pin=(0.0, 1.0, 5.0, 7.0))

    def test_infeasible_ansatz(self):
        pairs = matched_pairs(1.0, 0.0)
        with pytest.raises(NoMapError):
            solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")),
                      params={"alpha": 1.0, "beta": 0.0},
                      window=(0.0, 1.0, 0.5, 2.0))

    def test_near_map_fails_reverification(self):
        # (exp(x) d/dx, 1000 d/dy) needs mu2 = -1000 exp(-x) + c.  A degree-9
        # polynomial fits it to about 1e-6: inside the feasibility gate, which
        # scales with the largest |b| (1000), but above VERIFY_TOL = 1e-8 at
        # the fresh points
        pairs = PairedSymmetries.from_tx([
            (VectorField(tau=p("1")), VectorField(tau=p("1"))),
            (VectorField(phi=p("exp(x)")), VectorField(phi=p("1000"))),
        ])
        mu2_basis = tuple(p(f"x^{k}") for k in range(10))
        with pytest.raises(NoMapError, match="candidate map fails "
                                             "re-verification: residual "):
            solve_map(pairs, (p("1"), p("t")), mu2_basis, params={},
                      window=(0.1, 1.0, 0.5, 2.0))

    @pytest.mark.parametrize("degree, refusal", [
        (7, r"map conditions are infeasible with this ansatz "
            r"\(best residual 7\.821e-07\)"),
        (8, r"candidate map fails re-verification: residual 4\.399e-08"),
    ], ids=("infeasible", "re-verification"))
    def test_feasibility_gate_from_both_sides(self, degree, refusal):
        # (exp(x) d/dx, d/dy) needs mu2 = c - exp(-x), which a polynomial
        # of degree d only approximates.  The largest |b| is 1, so the gate
        # 1e-7 * scale is 1e-7: the degree-7 fit (7.8e-7) lies above it, the
        # degree-8 fit (3.4e-8) below it, and that fit's 4.4e-8 at the fresh
        # points above VERIFY_TOL = 1e-8.  A gate loosened by 10^3 passes
        # degree 7 on to re-verification; one tightened by 10^3 refuses
        # degree 8 as infeasible
        pairs = PairedSymmetries.from_tx([
            (VectorField(tau=p("1")), VectorField(tau=p("1"))),
            (VectorField(phi=p("exp(x)")), VectorField(phi=p("1"))),
        ])
        mu2_basis = tuple(p(f"x^{k}") for k in range(degree + 1))
        with pytest.raises(NoMapError, match=f"^{refusal}$"):
            solve_map(pairs, (p("1"), p("t")), mu2_basis, params={})

    @pytest.mark.parametrize("c, refused", [(1.1e-8, True), (1.05e-8, False)])
    def test_reverification_gate_from_both_sides(self, c, refused):
        # (d/dt, d/ds) and (d/dx, (1 + c*t) d/dy) with mu1 = a0 + a1*t and
        # mu2 = b0 + b1*x: the rows 1 - a1 and 1 + c*mu1 - b1 leave a1 = 1 up
        # to O(c^2), and b1 can match c*mu1 only at the mean of the fitted
        # t.  The map's residual at a fresh point is c*(t - mean t) + O(c^2)
        pairs = PairedSymmetries.from_tx([
            (VectorField(tau=p("1")), VectorField(tau=p("1"))),
            (VectorField(phi=p("1")), VectorField(phi=p(f"1 + {c!r}*t"))),
        ])
        fitted = [t for t, _ in sample_points(64, seed=2026)]  # the defaults
        mean = sum(fitted) / len(fitted)
        resid = c * max(abs(t - mean) for t, _ in sample_points(32, seed=2027))
        if refused:
            assert f"{resid:.3e}" == "1.018e-08"
            with pytest.raises(NoMapError, match=r"^candidate map fails "
                               r"re-verification: residual 1\.018e-08$"):
                solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")), params={})
            return
        assert resid < 1e-8
        tmap = solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")), params={})
        env = {"t": 0.5, "x": 1.5}
        assert evaluate(tmap.mu1, env) == pytest.approx(0.5, abs=1e-7)
        assert evaluate(tmap.mu2, env) == pytest.approx(1.5 * (1 + c * mean),
                                                        rel=1e-12)

    def test_nonlinear_solve_finds_no_map(self):
        # (d/dx, (y^2 + 1) d/dy) needs mu2_x = mu2^2 + 1, so mu2 = tan(x + c):
        # no affine mu2 = a + b x solves (a + b x)^2 + 1 = b
        pairs = PairedSymmetries.from_tx(
            [(VectorField(phi=p("1")), VectorField(phi=p("x^2 + 1")))])
        with pytest.raises(NoMapError, match="nonlinear solve found no map "
                                             r"\(best residual "):
            solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")), params={},
                      window=(0.1, 1.0, 0.5, 2.0))

    def test_nonlinear_target_path(self):
        # y^2 d/dy is not affine in y: the quadratic composition routes the
        # solve to Gauss-Newton; x^2 d/dx pairs with it under mu = (t, x)
        pairs = PairedSymmetries.from_tx([
            (VectorField(tau=p("1")), VectorField(tau=p("1"))),
            (VectorField(phi=p("x^2")), VectorField(phi=p("x^2"))),
        ])
        tmap = solve_map(pairs, (p("1"), p("t")), (p("x"), p("1")),
                         params={}, window=(0.1, 1.0, 0.5, 2.0),
                         pin=(0.5, 1.0, 0.5, 1.0))
        assert simplify(tmap.mu1) == parse("t")
        assert simplify(tmap.mu2) == parse("x")

    def test_monotonicity_guard(self):
        # pair (-d/dt, d/ds) forces mu1_t = -1: decreasing mu1 must be refused
        pairs = PairedSymmetries.from_tx(
            [(VectorField(tau=p("-1")), VectorField(tau=p("1")))])
        with pytest.raises(TransformError, match="increasing"):
            solve_map(pairs, (p("1"), p("t")), (p("1"), p("x")),
                      params={}, window=(0.1, 1.0, 0.5, 2.0))

    def test_constraint_row_on_returned_map(self):
        # for every paired source generator: mu1_x * phitilde == 0 on the grid
        params = {"alpha": 1.0, "beta": 0.0}
        pairs = matched_pairs(1.0, 0.0)
        tmap = solve_map(pairs, MU1_BASIS, MU2_BASIS, params=params,
                         window=(0.0, 1.0, 0.5, 2.0))
        mu1_x = diff(tmap.mu1, "x")
        pts = sample_points(50, (0.0, 1.0, 0.5, 2.0), seed=3)
        for v, _ in pairs:
            for t, x in pts:
                env = dict(params)
                env["t"], env["x"] = t, x
                val = evaluate(mu1_x, env) * evaluate(v.phitilde, env)
                assert abs(val) < 1e-10


class TestNonFiniteGates:
    """A value that is nan on part of the window never passes a gate, even
    where the finite part would."""

    def test_system_residual(self):
        # mu2_x = 1 + 1.5e-12*(x - 1)^(1/2): nan for x < 1
        pairs = PairedSymmetries.from_tx([(VectorField(phi=p("1")),
                                           VectorField(phi=p("1")))])
        tmap = TransformMap(p("t"), p("x + 1e-12*(x - 1)^(3/2)"))
        points = sample_points(16, seed=3)
        above = [(t, x) for t, x in points if x > 1.0]
        assert len(above) < len(points)
        residuals = transformation_system(pairs, tmap.mu1, tmap.mu2).residuals
        assert max_residual(residuals, above, {}).max_abs < 1e-8
        assert max_residual(residuals, points, {}).max_abs == np.inf

    def test_monotone_mu1(self):
        window = (0.1, 2.0, 0.5, 2.0)
        assert _monotone_mu1(p("t + (t - 0.05)^(3/2)"), window, {})
        assert not _monotone_mu1(p("t + (t - 1)^(3/2)"), window, {})


class TestPipelineIntegration:
    def test_matched_pairs_from_solver_equal_hand_built(self):
        params = {"alpha": 1.0, "beta": 0.0}
        src = Sde(p("alpha*x + beta"), p("1"), dict(params))
        tgt = Sde(parse("0"), parse("1"))
        src_basis = solve_symmetries(src, Ansatz(
            tau=(p("1"), p("exp(2*alpha*t)")),
            phi=(p("exp(alpha*t)"), p("(alpha*x+beta)*exp(2*alpha*t)"))), "classical")
        tgt_basis = solve_symmetries(tgt, Ansatz(
            tau=(parse("1"), parse("t")), phi=(parse("1"), parse("x"))), "classical")
        pts = sample_points(32, seed=11)
        m = match_basis(structure_constants(list(src_basis), pts, params),
                        structure_constants(list(tgt_basis), pts, {}), seed=3)
        assert m.matched
        pairs = PairedSymmetries.from_tx(
            list(zip(apply_match(m.A, list(src_basis)), tgt_basis)))
        tmap = solve_map(pairs, MU1_BASIS, MU2_BASIS, params=params,
                         window=(0.0, 1.0, 0.5, 2.0))
        ref = paper_map()
        env = dict(params, t=0.37, x=1.21)
        assert evaluate(tmap.mu1, env) == pytest.approx(evaluate(ref.mu1, env))
        assert evaluate(tmap.mu2, env) == pytest.approx(evaluate(ref.mu2, env))

    def test_first_residual_tau_slot_matches_flow_slope(self):
        # the tau factor in the first map-condition row equals the eps-slope
        # of the time change at eps = 0 (finite differences on beta_eps)
        params = {"alpha": 1.0, "beta": 0.0}

        def central(v, t, h):
            bp = time_change(v, params, h, np.array([t]))[0][0]
            bm = time_change(v, params, -h, np.array([t]))[0][0]
            return (bp - bm) / (2 * h)

        for v, _ in matched_pairs(1.0, 0.0):
            if v.has_stochastic_part() or not v.time_only_tau():
                continue
            for t in (0.2, 0.7, 1.3):
                h = 1e-4
                slope = (4 * central(v, t, h / 2) - central(v, t, h)) / 3
                tau_val = evaluate(v.tau, dict(params, t=t, x=1.0))
                assert abs(slope - tau_val) < 1e-6
