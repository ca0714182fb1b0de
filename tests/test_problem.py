"""Problem-file and ansatz-spec parsing."""

from fractions import Fraction

import pytest

from sdesym.expr import parse, simplify
from sdesym.problem import (
    ProblemError,
    parse_ansatz_spec,
    parse_problem_text,
)


class TestAnsatzSpec:
    def test_poly_degree_one(self):
        entries = parse_ansatz_spec("poly(t,x;1)", ("t", "x"), ())
        assert set(entries) == {parse("1"), parse("t"), parse("x")}

    def test_poly_degree_two_counts(self):
        entries = parse_ansatz_spec("poly(t,x;2)", ("t", "x"), ())
        assert len(entries) == 6  # 1, t, x, t^2, t*x, x^2

    def test_exponential_prefix(self):
        entries = parse_ansatz_spec("exp(a*t)*poly(x;1)", ("t", "x"), ("a",))
        want = {simplify(parse("exp(a*t)", parameters=("a",))),
                simplify(parse("x*exp(a*t)", parameters=("a",)))}
        assert set(entries) == want

    def test_union_dedupes(self):
        entries = parse_ansatz_spec("poly(x;1) + poly(t;1)", ("t", "x"), ())
        assert len(entries) == 3  # the shared constant appears once

    def test_bare_expression_entry(self):
        entries = parse_ansatz_spec("x*exp(2*t)", ("t", "x"), ())
        assert entries == (simplify(parse("x*exp(2*t)")),)

    def test_plus_in_a_literal_splits_no_sum(self):
        # the sum is cut at + tokens, and the exponent's sign is no token
        entries = parse_ansatz_spec("poly(x;1) + 1e+0*x^2", ("t", "x"), ())
        assert entries == tuple(simplify(parse(e)) for e in ("1", "x", "x^2"))

    def test_degree_zero(self):
        assert parse_ansatz_spec("poly(t;0)", ("t", "x"), ()) == (parse("1"),)

    def test_bad_variable(self):
        with pytest.raises(ProblemError, match="not a declared variable"):
            parse_ansatz_spec("poly(z;1)", ("t", "x"), ())

    def test_missing_degree(self):
        with pytest.raises(ProblemError, match="degree"):
            parse_ansatz_spec("poly(t)", ("t", "x"), ())


GOOD = """
# demo problem
[declare]
var t
var x
param a = 2.0
param b

[sde]
drift = a*x
diffusion = 1

[ansatz]
tau = poly(t;1)
phi = exp(a*t)*poly(x;1)

[target.sde]
drift = 0
diffusion = 1

[map.ansatz]
mu1 = poly(t;1)
mu2 = poly(x;1)

[numeric]
window = 0, 1, 0.5, 2
seed = 42
h = 0.01
steps = 100
"""


class TestProblemFile:
    def test_full_parse(self):
        pf = parse_problem_text(GOOD)
        assert pf.params == {"a": 2.0, "b": None}
        assert pf.sde is not None and pf.target is not None
        assert pf.window() == (0.0, 1.0, 0.5, 2.0)
        assert pf.seed() == 42
        assert len(pf.ansatz.tau) == 2 and len(pf.ansatz.phi) == 2
        assert len(pf.map_mu1) == 2 and len(pf.map_mu2) == 2

    def test_duplicate_drift_rejected(self):
        text = "[sde]\ndrift = 0\ndrift = 1\ndiffusion = 1\n"
        with pytest.raises(ProblemError, match="duplicate"):
            parse_problem_text(text)

    # a repeated key is refused in every section, never overwritten by the
    # last line
    @pytest.mark.parametrize("section, lines, key", [
        ("ansatz", "tau = poly(t;1)\nphi = poly(x;1)\ntau = poly(t;0)", "tau"),
        ("map.ansatz", "mu1 = poly(t;1)\nmu2 = poly(x;1)\nmu2 = x", "mu2"),
        ("numeric", "seed = 1\npaths = 100\nseed = 7", "seed"),
        ("declare", "param a = 1.0\nparam b\nparam a = 2.0", "param a"),
        ("declare", "param a\nvar z\nparam a", "param a"),
    ])
    def test_repeated_key_rejected(self, section, lines, key):
        text = f"[sde]\ndrift = 0\ndiffusion = 1\n[{section}]\n{lines}\n"
        with pytest.raises(ProblemError) as err:
            parse_problem_text(text, path="p.prob")
        assert str(err.value) == f"p.prob:7: duplicate {key}"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "one", "1e400"])
    def test_param_value_must_be_finite(self, value):
        def text(v):
            return f"[declare]\nparam a = {v}\n[sde]\ndrift = a*x\ndiffusion = 1\n"
        with pytest.raises(ProblemError) as err:
            parse_problem_text(text(value), path="p.prob")
        assert str(err.value) == (
            f"p.prob:2: param a must be a finite number, got '{value}'")
        # a value is the exact rational of its text, which has no signed zero
        for spelled, want in (("-0.0", Fraction(0)), ("0.1", Fraction(1, 10)),
                              ("1e-3", Fraction(1, 1000))):
            got = parse_problem_text(text(spelled)).params["a"]
            assert type(got) is Fraction and got == want, spelled

    def test_missing_diffusion_rejected(self):
        with pytest.raises(ProblemError, match="exactly one"):
            parse_problem_text("[sde]\ndrift = 0\n")

    def test_undeclared_symbol_rejected(self):
        text = "[sde]\ndrift = c*x\ndiffusion = 1\n"
        with pytest.raises(ProblemError, match="unknown symbol"):
            parse_problem_text(text)

    def test_unknown_section(self):
        with pytest.raises(ProblemError, match="unknown section"):
            parse_problem_text("[sde2]\n")

    def test_content_outside_section(self):
        with pytest.raises(ProblemError, match="outside"):
            parse_problem_text("drift = 0\n")

    def test_error_carries_location(self):
        bad = "[declare]\nvar t\n\n[sde]\ndrift = ((\ndiffusion = 1\n"
        with pytest.raises(ProblemError, match="p.prob:5"):
            parse_problem_text(bad, path="p.prob")

    @pytest.mark.parametrize("eps", ["0", "nan", "inf", "-inf"])
    def test_eps_must_be_finite_and_nonzero(self, eps):
        text = f"[sde]\ndrift = 0\ndiffusion = 1\n\n[numeric]\neps = {eps}\n"
        with pytest.raises(ProblemError, match="<memory>:6: eps must be"):
            parse_problem_text(text)
        assert parse_problem_text(text.replace(f"eps = {eps}", "eps = -0.3")
                                  ).numeric["eps"] == -0.3

    def test_repeated_base_variable_accepted(self):
        pf = parse_problem_text("[declare]\nvar t\nvar x\nvar t\nvar z\nvar z\n"
                                "[sde]\ndrift = 0\ndiffusion = 1\n")
        assert pf.variables == ("t", "x", "z")

    def test_declared_names_are_the_scanned_names(self):
        # a name starts with an isalpha() character or _ and goes on with
        # isalnum() characters or _ ('²' is isalnum), as expressions read it
        for name in ("é", "_1", "x²"):
            pf = parse_problem_text(f"[declare]\nvar {name}\n")
            assert pf.variables[-1] == name
            assert parse(name, pf.variables).name == name
        for name in ("²x", "a.b", "x-y"):
            with pytest.raises(ProblemError, match=f"var '{name}' is not a name"):
                parse_problem_text(f"[declare]\nvar {name}\n")

    def test_extra_variable_declaration(self):
        pf = parse_problem_text("[declare]\nvar z\n\n[sde]\ndrift = 0\ndiffusion = 1\n")
        assert "z" in pf.variables
