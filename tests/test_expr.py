"""Expression kernel: parsing, printing, calculus, simplification."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from sdesym import expr as ex, problem
from sdesym.expr import (
    ParseError,
    UnboundSymbolError,
    UnknownSymbolError,
    diff,
    parse,
    simplify,
    substitute,
    to_str,
)

from conftest import (
    DomainError,
    evaluate,
    exact_floats,
    horner,
    parse_floats,
    random_expr,
    random_point,
    to_sympy,
)

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
        # a decimal or scientific literal is the exact rational of its text
        for text, want in (("2.5e-1", Fraction(1, 4)), ("0.1", Fraction(1, 10)),
                           ("1e-3", Fraction(1, 1000)), ("٣.٥", Fraction(7, 2)),
                           ("5.", Fraction(5)), (".5", Fraction(1, 2))):
            e = p(text)
            assert e.kind == ex.CONST and type(e.value) is Fraction, text
            assert e.value == want, text
        assert p("1.0") == p("1") != ex.const(1.0)
        with pytest.raises(ParseError, match="'1e400' is beyond the float range"):
            p("2*1e400")

    def test_too_many_digits_is_a_parse_error(self):
        # Python converts at most 4,300 digits in a row to an int, so the
        # exact rational of a longer literal cannot be built: the literal is
        # refused at its position, and so is a param value
        long = "0." + "1" * 5000
        with pytest.raises(ParseError) as err:
            p(f"x + {long}*x^2")
        assert str(err.value) == ("number '0.1111111111'... has too many "
                                  "digits to read exactly (at position 4)")
        with pytest.raises(ParseError, match="too many digits"):
            p("0." + "1" * 4301)
        assert p("0." + "1" * 4300).value == Fraction(int("1" * 4300),
                                                      10**4300)
        with pytest.raises(problem.ProblemError) as err:
            problem.parse_problem_text(f"[declare]\nparam a = {long}\n")
        assert str(err.value) == ("<memory>:2: param a = '0.1111111111'... "
                                  "has too many digits to read exactly")
        # a signed value too; a malformed one keeps its message
        with pytest.raises(problem.ProblemError, match="too many digits"):
            problem.parse_problem_text(f"[declare]\nparam a = -{long}\n")
        for bad in ("abc", "--1", "1.2.3"):
            with pytest.raises(problem.ProblemError) as err:
                problem.parse_problem_text(f"[declare]\nparam a = {bad}\n")
            assert str(err.value) == (
                f"<memory>:2: param a must be a finite number, got {bad!r}")

    def test_scanner_classes_are_the_str_predicates(self):
        # per code point: a space is isspace(), a number starts with an
        # isdecimal() digit, a word is made of isalnum() characters or _
        # (the one class of its first and later characters), and _tokens
        # reads a word as a name when it starts with an isalpha() character
        # or _
        chars = [chr(cp) for cp in range(sys.maxunicode + 1)]

        def group(c):
            if c.isspace():
                return None
            if c.isdecimal():
                return "num"
            if c.isalnum() or c == "_":
                return "ident"
            return "op" if c in "+-*/^()" else "other"

        # one match per character that is not a space, in order
        groups = list(map(group, chars))
        assert [m.lastgroup for m in ex._TOKEN.finditer(" ".join(chars))] == [
            *filter(None, groups), "end"]
        words = [c for c, g in zip(chars, groups) if g in ("num", "ident")]
        kinds = [k for k, _, _ in ex._tokens(" ".join(words))]
        assert kinds[:-1] == ["ident" if c.isalpha() or c == "_" else
                              "num" if c.isdecimal() else "other" for c in words]
        word = "a" + "".join(words)
        assert ex._tokens(word) == [("ident", word, 0), ("end", "", len(word))]

    @pytest.mark.parametrize("code, said", [
        ("print(parse('0e999999999*x'))", "0*x"),
        ("parse('2*1e-400')",
         "number '1e-400' is beyond the float range (at position 2)"),
        ("problem.parse_problem_text('[declare]\\nparam a = 1e-999999999\\n')",
         "<memory>:2: param a must be a finite number, got '1e-999999999'"),
    ])
    def test_number_range_decided_before_the_rational(self, code, said):
        # Fraction(text) of these builds 10^999999999 (or 10^400): the zero
        # is 0 and the nonzero value whose float is 0 is refused, at once.
        # A fresh interpreter runs the code, so that a hang fails the test.
        script = ("import time\nfrom sdesym import expr as ex, problem\n"
                  "from sdesym.expr import parse\nt0 = time.perf_counter()\n"
                  f"try:\n    {code}\n"
                  "except (ex.ParseError, problem.ProblemError) as err:\n"
                  "    print(err)\n"
                  "print(time.perf_counter() - t0)\n")
        env = {**os.environ, "PYTHONPATH": os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr
        out, took = proc.stdout.splitlines()
        assert out == said and float(took) < 0.5

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse("q + 1")

    def test_syntax_error_has_position(self):
        # a superscript digit is not a decimal digit: a parse error, no crash
        for text in ("a*(x + ", "²", "1²", "3.5e²"):
            with pytest.raises(ParseError) as err:
                p(text)
            assert "position" in str(err.value)
        assert p("٣*x") == p("3*x")  # other decimal digits still parse

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
        # a float constant comes back as the exact rational of its repr
        for _ in range(300):
            e = random_expr(rng, 4)
            again = parse(to_str(e), parameters=PARAMS)
            assert again == exact_floats(e), to_str(e)
            se = simplify(e)
            assert parse(to_str(se), parameters=PARAMS) == exact_floats(se), to_str(se)


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

    @pytest.mark.parametrize("text", ["x^x", "2^x", "(t + 1)^(t*x)"])
    def test_power_with_variable_exponent(self, text):
        # d(b^p) when p depends on the variable: b^p*log(b)*p' for a base
        # without it, b^p*(p'*log(b) + p*b'/b) otherwise
        e = p(text)
        for name in ("t", "x"):
            d = diff(e, name)
            for t, x in ((0.5, 0.7), (1.2, 1.5), (2.0, 0.9)):
                env = {"t": t, "x": x}
                hi = dict(env, **{name: env[name] + 1e-6})
                lo = dict(env, **{name: env[name] - 1e-6})
                fd = (evaluate(e, hi) - evaluate(e, lo)) / 2e-6
                exact = evaluate(d, env)
                assert abs(fd - exact) <= 1e-7 * max(1.0, abs(exact)), (text, name)


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
        # a sum that overflows has no domain error to name; numpy gives inf
        # where a scalar fsum raises OverflowError
        with pytest.raises(ex.EvalError, match=r"at point \(t=1.5, x=1.5\): non-finite "
                                               r"value inf of '1e\+308\*x \+ 1e\+308\*t'"):
            ex.finite_points([parse_floats("1e308*x + 1e308*t")], [(1.5, 1.5)])

    def test_explanation_matches_scalar_domain_error(self, rng):
        # points where random trees hit their singularities: x = 0 for
        # log(x) and /x, t = -1 for /(t + 1), t = -2 for log(t + 2); a
        # power or exp on top adds the other domain errors
        tops = (lambda u: u,
                lambda u: ex.pow_(u, ex.const(Fraction(1, 2))),
                lambda u: ex.pow_(u, ex.const(-1)),
                lambda u: ex.pow_(u, ex.const(3000.0)),
                lambda u: ex.exp(ex.mul(ex.const(800), u)))
        checked = set()
        for _ in range(600):
            e = tops[rng.integers(len(tops))](random_expr(rng, 4))
            t = float((-2.0, -1.0, 0.5)[rng.integers(3)])
            x = float((0.0, -0.5, 1.3)[rng.integers(3)])
            if np.all(np.isfinite(ex.evaluate_points([e], [(t, x)], {"a": 0.8}))):
                continue
            try:
                evaluate(e, {"t": t, "x": x, "a": 0.8})
            except DomainError as err:
                with pytest.raises(ex.EvalError) as got:
                    ex.finite_points([e], [(t, x)], {"a": 0.8})
                assert str(got.value) == (
                    f"evaluation failed at point (t={t}, x={x}): {err}"), to_str(e)
                checked.add(str(err).split(" in subexpression")[0])
        assert len(checked) == 6

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
        # the fixed inputs lie beyond the float range; they stay unfolded
        fixed = [p(s) for s in ("2^3000.0", "1e300^2", "exp(1000.0)")]
        for e in fixed + [random_expr(rng, 4) for _ in range(300)]:
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

    def test_canonical_form_independent_of_term_order(self):
        # a decimal literal is exact, so both orders give one canonical form
        assert str(simplify(p("2*x^2.0 + x^2"))) == "3*x^2"
        assert str(simplify(p("x^2 + 2*x^2.0"))) == "3*x^2"
        # a float exponent, as built by const(2.0), is a term of its own
        x = ex.var("x")
        sq, sq_float = ex.pow_(x, ex.const(2)), ex.pow_(x, ex.const(2.0))
        for terms in ((ex.mul(2, sq_float), sq), (sq, ex.mul(2, sq_float))):
            assert str(simplify(ex.add(*terms))) == "x^2 + 2*x^2.0"

    def test_node_kinds_sort_by_rank(self):
        # the expected strings are derived by hand from expr._RANK: const 0,
        # param 1, var 2, power 3, exp 4, log 5, neg 6, quotient 7,
        # product 8, sum 9.  Each input holds every node kind; one of each
        # kind is left as a term of the sum (a quotient becomes a product,
        # a sum is flattened) and as a factor of the product (whose
        # coefficient leads, and which holds no neg or product), so the
        # order is the ranks' alone
        def kinds(e):
            return {e.kind}.union(*map(kinds, e.children))

        for text, want in (
                ("log(x) + t*x/2 - t + exp(x) + x^2 + a + 1 + x",
                 "1 + a + x + x^2 + exp(x) + log(x) - t + 1/2*t*x"),
                ("-(1 + x)*log(x)*exp(x)*t^2*x*a/3",
                 "-1/3*a*x*t^2*exp(x)*log(x)*(1 + x)")):
            assert kinds(p(text)) == set(ex._RANK)
            assert str(simplify(p(text))) == want

    def test_decimal_literals_fold_exactly(self):
        s = simplify(p("0.1*x + 0.2*x"))
        assert str(s) == "3/10*x" and s.children[0].value == Fraction(3, 10)
        # a constant power with a non-integer exponent stays exact and unfolded
        assert str(simplify(p("4^(1/2)*x"))) == "x*4^(1/2)"
        assert str(simplify(p("exp(0.5)"))) == "exp(1/2)"
        # a constant power folds only to a value in the float range
        assert simplify(p("2^-3")).value == Fraction(1, 8)
        assert simplify(p("2^3000")).kind == ex.POWER

    def test_folded_rational_fits_in_fold_bits(self):
        # a power is folded only when n*log2 of its base's terms is within
        # _FOLD_BITS, decided before it is computed
        assert simplify(p("2^1000*x")).children[0].value == 2 ** 1000
        assert str(simplify(p("10^-5000*x"))) == "x*10^-5000"
        # a product or sum whose folded constant is larger is refused,
        # naming the node; the test reads the folded constant, so the order
        # of the factors does not matter
        for text in ("1e300*1e300*x", "x + 3^-600 + 5^-400", "1e300/1e-300"):
            with pytest.raises(ex.ExprError, match="exact constant of more than "
                               "1100 bits in subexpression"):
                simplify(p(text))
        for text in ("1e300*1e300*1e-300*x", "1e-300*1e300*1e300*x"):
            assert simplify(p(text)) == simplify(p("1e300*x"))
