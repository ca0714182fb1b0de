"""Determining systems: worked examples, reduction, linearity."""

import numpy as np
import pytest

from sdesym.determining import (
    DeterminingError,
    Sde,
    VectorField,
    build_system,
)
from sdesym.expr import add, parse, simplify

from conftest import evaluate

P = ("a", "b")


def p(s):
    return parse(s, parameters=P)


BROWNIAN = Sde(p("0"), p("1"))
LANGEVIN = Sde(p("a*x"), p("b"), {"a": 1.0, "b": 1.0})
AXINV = Sde(p("a/x"), p("1"), {"a": 1.0})

# published generators of the three worked examples
BROWNIAN_GENS = [
    VectorField(p("2*t"), p("x")),
    VectorField(phi=p("1")),
    VectorField(tau=p("1")),
    VectorField(phitilde=p("1")),
]
LANGEVIN_GENS = [
    VectorField(phi=p("exp(a*t)")),
    VectorField(p("exp(2*a*t)/a"), p("exp(2*a*t)*x")),
    VectorField(tau=p("1")),
    VectorField(phitilde=p("exp(a*t)")),
]
AXINV_GENS = [
    VectorField(p("2*t"), p("x")),
    VectorField(tau=p("1")),
]


def rand_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return [(float(t), float(x))
            for t, x in zip(rng.uniform(0.1, 2, n), rng.uniform(0.5, 2, n))]


def max_abs(system, params, points):
    worst = 0.0
    for t, x in points:
        env = dict(params)
        env["t"], env["x"] = t, x
        for r in system.residuals:
            worst = max(worst, abs(evaluate(r, env)))
    return worst


class TestClassical:
    def test_brownian_scaling_generator(self):
        ds = build_system(BROWNIAN, VectorField(p("2*t"), p("x")), "classical")
        assert all(simplify(r).is_zero() for r in ds.residuals)

    def test_zero_field(self):
        ds = build_system(BROWNIAN, VectorField(), "classical")
        assert all(simplify(r).is_zero() for r in ds.residuals)

    def test_langevin_exponential_translation(self):
        ds = build_system(LANGEVIN, VectorField(phi=p("exp(a*t)")), "classical")
        assert all(simplify(r).is_zero() for r in ds.residuals)

    def test_rejects_x_dependent_tau(self):
        with pytest.raises(DeterminingError):
            build_system(BROWNIAN, VectorField(tau=p("x")), "classical")

    def test_rejects_stochastic_part(self):
        with pytest.raises(DeterminingError):
            build_system(BROWNIAN, VectorField(phitilde=p("1")), "classical")


class TestStochastic:
    def test_brownian_pure_stochastic_generator(self):
        ds = build_system(BROWNIAN, VectorField(phitilde=p("1")), "stochastic")
        assert all(simplify(r).is_zero() for r in ds.residuals)

    def test_langevin_stochastic_generator(self):
        ds = build_system(LANGEVIN, VectorField(phitilde=p("exp(a*t)")), "stochastic")
        assert simplify(ds.residuals[1]).is_zero()
        assert simplify(ds.residuals[3]).is_zero()
        assert all(simplify(r).is_zero() for r in ds.residuals)

    def test_reduction_to_classical_structural(self):
        # phitilde == 0: rows (i), (iii) coincide with the classical rows
        # and rows (ii), (iv) vanish identically
        for sde in (BROWNIAN, LANGEVIN, AXINV):
            v = VectorField(p("2*t"), p("x + 1"))
            st = build_system(sde, v, "stochastic")
            cl = build_system(sde, v, "classical")
            assert st.residuals[0] == cl.residuals[0]
            assert st.residuals[2] == cl.residuals[1]
            assert st.residuals[1].is_zero()
            assert st.residuals[3].is_zero()

    def test_reduction_numeric(self):
        points = rand_points(100, seed=3)
        v = VectorField(p("t"), p("x^2"))
        for sde, params in ((BROWNIAN, {}), (LANGEVIN, {"a": 1.0, "b": 1.0}),
                            (AXINV, {"a": 1.0})):
            st = build_system(sde, v, "stochastic")
            cl = build_system(sde, v, "classical")
            for t, x in points:
                env = dict(params)
                env["t"], env["x"] = t, x
                for i, j in ((0, 0), (2, 1)):
                    lhs = evaluate(st.residuals[i], env)
                    rhs = evaluate(cl.residuals[j], env)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestDeterministicOde:
    def test_requires_zero_diffusion(self):
        with pytest.raises(DeterminingError):
            build_system(BROWNIAN, VectorField(), "det-ode")

    def test_constant_phitilde_on_trivial_ode(self):
        ode = Sde(p("0"), p("0"))
        ds = build_system(ode, VectorField(phitilde=p("1")), "det-ode")
        assert all(simplify(r).is_zero() for r in ds.residuals)
        ds_t = build_system(ode, VectorField(phitilde=p("t")), "det-ode")
        assert not simplify(ds_t.residuals[1]).is_zero()

    def test_linear_drift_exponential(self):
        ode = Sde(p("x"), p("0"))
        ds = build_system(ode, VectorField(phitilde=p("exp(t)")), "det-ode")
        assert simplify(ds.residuals[1]).is_zero()

    def test_quadratic_drift_second_row(self):
        ode = Sde(p("x^2"), p("0"))
        ds = build_system(ode, VectorField(phitilde=p("x^2")), "det-ode")
        # second row: f_x*pt - pt_t - pt_x*f = 2x*x^2 - 0 - 2x*x^2 = 0
        assert simplify(ds.residuals[1]).is_zero()


ODE_DRIFTS = ("x^2", "a*x", "exp(t)*x", "a/x", "log(x) + t")
ODE_FIELDS = (
    VectorField(phitilde=p("x^2")),
    VectorField(p("t"), p("x + 1"), p("exp(a*t)")),
    VectorField(p("exp(2*a*t)"), p("t*x^3"), p("x^3 + t*x")),
)


@pytest.mark.parametrize("drift", ODE_DRIFTS)
def test_det_ode_rows_are_stochastic_rows_at_zero_diffusion(drift):
    # g == 0: the det-ode system is rows (i) and (ii) of the stochastic
    # system, as Expr trees; rows (iii) and (iv) vanish identically
    ode = Sde(p(drift), p("0"), {"a": 1.0})
    for v in ODE_FIELDS:
        st = build_system(ode, v, "stochastic")
        assert build_system(ode, v, "det-ode").residuals == st.residuals[:2]
        assert st.residuals[2].is_zero() and st.residuals[3].is_zero()


class TestLinearity:
    def test_joint_linearity_when_quadratic_term_absent(self):
        # f_xx = g_xx = 0 for Brownian and Langevin: residuals additive
        # in (tau, phi, phitilde) jointly
        points = rand_points(30, seed=9)
        v1 = VectorField(p("t"), p("x"), p("1"))
        v2 = VectorField(p("1"), p("2*x + 1"), p("exp(a*t)"))
        v12 = VectorField(add(v1.tau, v2.tau), add(v1.phi, v2.phi),
                          add(v1.phitilde, v2.phitilde))
        for sde, params in ((BROWNIAN, {"a": 1.0}), (LANGEVIN, {"a": 1.0, "b": 1.0})):
            s1 = build_system(sde, v1, "stochastic")
            s2 = build_system(sde, v2, "stochastic")
            s12 = build_system(sde, v12, "stochastic")
            for t, x in points:
                env = dict(params)
                env["t"], env["x"] = t, x
                for k in range(4):
                    lhs = evaluate(s12.residuals[k], env)
                    rhs = evaluate(s1.residuals[k], env) + evaluate(s2.residuals[k], env)
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestPublishedGenerators:
    def test_all_examples_below_1e9(self):
        points = rand_points(100, seed=5)
        cases = [
            (BROWNIAN, BROWNIAN_GENS, {}),
            (LANGEVIN, LANGEVIN_GENS, {"a": 1.0, "b": 1.0}),
            (AXINV, AXINV_GENS, {"a": 1.0}),
        ]
        for sde, gens, params in cases:
            for v in gens:
                ds = build_system(sde, v, "stochastic")
                assert max_abs(ds, params, points) < 1e-9, str(v)


class TestSdeValidation:
    def test_rejects_foreign_variables(self):
        with pytest.raises(DeterminingError):
            Sde(parse("y"), p("1"))

    def test_deterministic_detection(self):
        assert Sde(p("x"), p("0")).is_deterministic()
        assert not LANGEVIN.is_deterministic()


class TestVectorFieldStr:
    @pytest.mark.parametrize("tau, phi, phitilde, text", [
        ("t", "-x", "0", "[t d/dt - x d/dx]^D"),
        ("t", "-1/2*x", "0", "[t d/dt - 1/2*x d/dx]^D"),
        ("t", "-1", "0", "[t d/dt - d/dx]^D"),
        ("t", "-2", "0", "[t d/dt - 2 d/dx]^D"),
        ("t", "-(x + 1)", "0", "[t d/dt - (1 + x) d/dx]^D"),
        ("0", "-1", "0", "[-1 d/dx]^D"),
        ("2*t", "x", "0", "[2*t d/dt + x d/dx]^D"),
        ("-t", "x", "0", "[-t d/dt + x d/dx]^D"),
        ("0", "-x", "-x", "[-x d/dx]^D + [-x d/dx]^S"),
        ("1", "1 - x", "0", "[d/dt + (1 - x) d/dx]^D"),
        ("0", "0", "0", "0"),
    ])
    def test_signs(self, tau, phi, phitilde, text):
        assert str(VectorField(p(tau), p(phi), p(phitilde))) == text
