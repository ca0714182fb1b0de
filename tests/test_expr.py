"""Expression kernel: parsing, printing, calculus, simplification."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from sdesym import expr as ex
from sdesym.expr import (
    DomainError,
    ParseError,
    UnboundSymbolError,
    UnknownSymbolError,
    diff,
    evaluate,
    parse,
    simplify,
    substitute,
    to_str,
)

from conftest import horner, random_expr, random_point, to_sympy

PARAMS = ("a", "b", "alpha", "beta", "c1", "c3")


def p(s):
    return parse(s, parameters=PARAMS)


# ---------------------------------------------------------------------------
# parse

class TestParse:
    def test_sum_of_product_and_param(self):
        e = p("a*x + b")
        assert e.kind == ex.SUM
        prod, b = e.children
        assert prod.kind == ex.PRODUCT
        assert {c.kind for c in prod.children} == {ex.PARAM, ex.VAR}
        assert b.kind == ex.PARAM and b.name == "b"

    def test_exponential(self):
        e = parse("exp(2*alpha*t)", parameters=("alpha",))
        assert e.kind == ex.EXP
        inner = e.children[0]
        assert inner.kind == ex.PRODUCT
        kinds = sorted(c.kind for c in inner.children)
        assert kinds == [ex.CONST, ex.PARAM, ex.VAR]

    def test_quotient_node(self):
        e = parse("a/x", parameters=("a",))
        assert e.kind == ex.QUOTIENT
        assert e.children[0].name == "a" and e.children[1].name == "x"

    def test_ratio_literal_is_exact(self):
        e = p("1/2")
        assert e.kind == ex.CONST and e.value == Fraction(1, 2)

    def test_float_literal(self):
        e = p("2.5e-1")
        assert e.kind == ex.CONST and isinstance(e.value, float)
        assert e.value == 0.25

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse("q + 1")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            p("a*(x + ")
        assert "position" in str(err.value)

    def test_unary_minus(self):
        assert p("-2").value == Fraction(-2)
        e = p("-x")
        assert e.kind == ex.NEG

    def test_precedence(self):
        assert evaluate(p("2 + 3*4"), {}) == 14
        assert evaluate(p("2*3^2"), {}) == 18
        assert evaluate(p("(2*3)^2"), {}) == 36
        assert evaluate(p("8/2/2"), {}) == 2


# ---------------------------------------------------------------------------
# print round trip

class TestPrint:
    def test_roundtrip_fixed(self):
        cases = ["a*x + b", "x^3 + t*x", "-exp(-2*t)/2", "1/2*x", "x - 1/2",
                 "(t+1)*(x-2)^3", "2*t^-1", "log(x) + exp(t)", "a/x",
                 "-(t*x)", "x^(1/2)", "t - (x - 1)"]
        for s in cases:
            e = p(s)
            assert parse(to_str(e), parameters=PARAMS) == e, s

    def test_roundtrip_random(self, rng):
        for _ in range(300):
            e = random_expr(rng, 4)
            again = parse(to_str(e), parameters=PARAMS)
            assert again == e, to_str(e)
            se = simplify(e)
            assert parse(to_str(se), parameters=PARAMS) == se, to_str(se)


# ---------------------------------------------------------------------------
# diff

class TestDiff:
    def test_constant(self):
        assert diff(p("5"), "t").is_zero()
        assert diff(p("a"), "t").is_zero()

    def test_exp_coefficient(self):
        d = diff(parse("exp(alpha*t)*x", parameters=("alpha",)), "x")
        assert d == parse("exp(alpha*t)", parameters=("alpha",))

    def test_cubic_at_point(self):
        d = diff(p("x^3 + t*x"), "x")
        exact = evaluate(d, {"t": 2.0, "x": 5.0})
        f = lambda xx: xx ** 3 + 2.0 * xx
        fd = (f(5.0 + 1e-5) - f(5.0 - 1e-5)) / 2e-5
        assert exact == pytest.approx(77.0)
        assert abs(exact - fd) <= 1e-6 * abs(exact)

    def test_rules_against_sympy(self, rng):
        x = sp.Symbol("x")
        for _ in range(120):
            e = random_expr(rng, 3)
            gap = to_sympy(diff(e, "x")) - sp.diff(to_sympy(e), x)
            for _ in range(4):
                env = random_point(rng)
                subs = {sp.Symbol(k): v for k, v in env.items()}
                val = gap.subs(subs)
                if not val.is_finite:
                    continue
                assert abs(float(val)) <= 1e-9, to_str(e)

    def test_finite_difference_200_exprs(self, rng):
        # central differences, step 1e-5, points away from singularities
        checked = 0
        for _ in range(200):
            e = random_expr(rng, 4)
            d = diff(e, "x")
            pts = 0
            while pts < 10:
                env = random_point(rng)
                try:
                    exact = evaluate(d, env)
                    hi = dict(env, x=env["x"] + 1e-5)
                    lo = dict(env, x=env["x"] - 1e-5)
                    fd = (evaluate(e, hi) - evaluate(e, lo)) / 2e-5
                except ex.EvalError:
                    continue
                if not (math.isfinite(exact) and math.isfinite(fd)):
                    continue
                if abs(exact) > 1e8:  # FD truncation dominates; skip extremes
                    pts += 1
                    continue
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), to_str(e)
                pts += 1
                checked += 1
        assert checked > 1000


# ---------------------------------------------------------------------------
# substitute

class TestSubstitute:
    def test_paper_composition(self):
        mu2 = parse("exp(-alpha*t)*(x + beta/alpha)", parameters=("alpha", "beta"))
        assert substitute(parse("y"), {"y": mu2}) == mu2

    def test_empty_binding_is_identity(self):
        e = p("a*x + t")
        assert substitute(e, {}) is e

    def test_simultaneous(self):
        e = substitute(p("t + y"), {"y": ex.var("t")})
        assert simplify(e) == simplify(p("2*t"))
        swap = substitute(p("t*y"), {"t": ex.var("y"), "y": ex.var("t")})
        assert simplify(swap) == simplify(p("t*y"))


# ---------------------------------------------------------------------------
# evaluate

class TestEvaluate:
    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(DomainError) as err:
            evaluate(parse("a/x", parameters=("a",)), {"a": 1.0, "x": 0.0})
        assert "a/x" in str(err.value)

    def test_paper_map_time_component(self):
        e = parse("-exp(-2*alpha*t)/(2*alpha)", parameters=("alpha",))
        assert evaluate(e, {"alpha": 1.0, "t": 0.0}) == pytest.approx(-0.5)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            evaluate(p("log(x)"), {"x": -1.0})

    def test_unbound(self):
        with pytest.raises(UnboundSymbolError):
            evaluate(p("a*x"), {"x": 1.0})

    def test_degree4_polynomial_vs_horner(self, rng):
        for _ in range(5):
            coeffs = [float(c) for c in rng.uniform(-3, 3, size=5)]
            e = ex.add(*[ex.mul(ex.const(c), ex.pow_(ex.var("x"), ex.const(4 - i)))
                         for i, c in enumerate(coeffs)])
            for _ in range(20):
                xv = float(rng.uniform(-2, 2))
                mine = evaluate(e, {"x": xv})
                ref = horner(coeffs, xv)
                assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_batched_domain_error_is_non_finite_and_explained(self):
        exprs = [p("x"), p("a/(x - 1)")]
        points = [(0.5, 2.0), (0.5, 1.0)]
        vals = ex.evaluate_points(exprs, points, {"a": 1.0})
        assert vals[0].tolist() == [2.0, 1.0]
        assert vals[1, 0] == 1.0 and not np.isfinite(vals[1, 1])
        with pytest.raises(ex.EvalError, match=r"at point \(t=0.5, x=1.0\): division "
                                               r"by zero in subexpression 'a/\(x - 1\)'"):
            ex.finite_points(exprs, points, {"a": 1.0})

    def test_compile_matches_scalar(self, rng):
        for _ in range(40):
            e = random_expr(rng, 3)
            fn = ex.compile_fn(e, ("t", "x"), {"a": 0.8})
            ts = rng.uniform(0.3, 1.5, size=7)
            xs = rng.uniform(0.6, 1.8, size=7)
            vec = np.broadcast_to(np.asarray(fn(ts, xs), dtype=float), (7,))
            for i in range(7):
                try:
                    ref = evaluate(e, {"t": ts[i], "x": xs[i], "a": 0.8})
                except ex.EvalError:
                    continue
                assert vec[i] == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# simplify

class TestSimplify:
    def test_additive_identity(self):
        assert simplify(p("x + 0")) == ex.var("x")

    def test_exp_product_merges(self):
        e = parse("exp(alpha*t)*exp(alpha*t)", parameters=("alpha",))
        assert simplify(e) == simplify(parse("exp(2*alpha*t)", parameters=("alpha",)))

    def test_brownian_tau_slope(self):
        tau = p("2*c1*t + c3")
        assert diff(tau, "t") == simplify(p("2*c1"))

    def test_idempotent_random(self, rng):
        for _ in range(300):
            e = random_expr(rng, 4)
            s1 = simplify(e)
            assert simplify(s1) == s1, to_str(e)

    def test_preserves_eval_random(self, rng):
        for _ in range(100):
            e = random_expr(rng, 4)
            s = simplify(e)
            hits = 0
            while hits < 100:
                env = random_point(rng)
                try:
                    v0 = evaluate(e, env)
                except ex.EvalError:
                    continue
                try:
                    v1 = evaluate(s, env)
                except ex.EvalError:
                    # simplification may remove a removable singularity (x*0)
                    continue
                hits += 1
                if not (math.isfinite(v0) and math.isfinite(v1)):
                    continue
                assert abs(v0 - v1) <= 1e-10 * max(1.0, abs(v0)), to_str(e)

    def test_collection(self):
        assert simplify(p("3*x - x - 2*x")).is_zero()
        assert simplify(p("x*x*x/x^2")) == ex.var("x")
        assert simplify(p("exp(log(x))")) == ex.var("x")
        assert simplify(p("log(exp(t))")) == ex.var("t")
        assert simplify(p("(exp(t))^2")) == simplify(p("exp(2*t)"))
        assert simplify(p("2^3")).value == Fraction(8)
        assert simplify(p("x^0")).is_one()
        assert simplify(p("0*log(x)")).is_zero()
