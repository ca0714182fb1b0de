"""Tree identity of the determining rows and map conditions, which share one
Ito helper, with the same rows written out term by term.

`build_system_written_out` and `transformation_system_written_out` in
conftest.py build every row with its own derivatives and negations.  The
production builders must return equal (==, which tells the constant 1 from
1.0) residual trees, so that the linearization, the solver and the printed
output see the same expressions.  The builders are also checked against
themselves run on memo-free rebuilt copies of their inputs under
`memo_off()`, where no node keeps its canonical form or sort key, by
`same_tree`, which also compares the sign of zero: 10,620 determining
systems and the 1,000 pair sets.  So a row cannot depend on which of its
shared subtrees an earlier row simplified.  Decimal literals here are float
constants (`parse_floats`), so the SDEs, fields and maps mix float and
rational constants.
"""

import itertools
import os

import numpy as np
import pytest

from sdesym import ansatz
from sdesym.ansatz import solve_symmetries
from sdesym.determining import Sde, VectorField, build_system
from sdesym.expr import add, mul, param
from sdesym.problem import load_problem
from sdesym.transform import PairedSymmetries, transformation_system

from conftest import (
    build_system_written_out,
    memo_off,
    parse_floats,
    rebuilt,
    same_tree,
    transformation_system_written_out,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
P = ("a", "b", "alpha", "beta", "_c0", "_c1", "_c2", "_c3", "_c4", "_c5")


def p(s):
    # decimal literals are float constants, as the solver makes them for
    # unsnapped coefficients; parse would make them exact rationals
    return parse_floats(s, parameters=P)


SDES = {
    "brownian": ("0", "1"),
    "langevin": ("a*x", "b"),
    "gbm": ("a*x", "b*x"),
    "xlogx": ("x*log(x)", "x"),
    "sinh": ("x/2", "(1 + x^2)^(1/2)"),
    "float": ("0.3*x - 1.5", "0.7*x"),
    "axinv": ("1/x", "x^(1/2)"),
    "t-dependent": ("x^3 - x", "1 + t"),
    "ode-x2": ("x^2", "0"),
    "ode-decay": ("exp(-t)*x + 0.5", "0"),
}
# the same kinds of SDE with float constants, some equal to an integer
FLOAT_SDES = {
    "brownian-float": ("0.0", "1.0"),
    "langevin-float": ("1.0*a*x", "b*2.0/2"),
    "gbm-mixed": ("a*x/2.0 + a*x/2", "b*x^1.0"),
    "xlogx-float": ("x*log(x)*1.0", "x^1.0"),
    "sinh-float": ("0.5*x", "(1.0 + x^2)^0.5"),
    "axinv-float": ("1.0/x", "x^0.5"),
    "t-dependent-float": ("x^3.0 - 1.0*x", "1.0 + t"),
    "cancel-float": ("1.0*x - x + 2.0*x*2 + x/2.0", "x - 0.0"),
    "ode-x2-float": ("x^2.0", "0.0"),
    "ode-mixed": ("1.0*x + 1", "0"),
}
TAUS = ("0", "1", "2*t", "_c0 + _c1*t", "exp(2*a*t)/a")
PHIS = ("0", "1", "x", "x*log(x)", "exp(a*t)*x", "_c2*x + _c3*t*x + _c4",
        "(1 + x^2)^(1/2)", "0.5*x*t", "_c5*exp(2*t)*x - 0.25*x")


def fields(g):
    """(field, mode) over TAUS x PHIS x PHIS in every mode the SDE admits."""
    for tau, phi, pt in itertools.product(TAUS, PHIS, PHIS):
        v = VectorField(p(tau), p(phi), p(pt))
        yield v, "stochastic"
        if pt == "0":
            yield v, "classical"
        if p(g).is_zero():
            yield v, "det-ode"


def grid_size(g):
    n = len(TAUS) * len(PHIS)
    return n * (len(PHIS) + 1) + (n * len(PHIS) if p(g).is_zero() else 0)


@pytest.mark.parametrize("name", sorted(SDES))
def test_build_system_trees_equal(name):
    f, g = SDES[name]
    sde = Sde(p(f), p(g))
    count = 0
    for v, mode in fields(g):
        assert build_system(sde, v, mode).residuals == \
            build_system_written_out(sde, v, mode), (name, str(v), mode)
        count += 1
    assert count == grid_size(g)


def rebuilt_field(v):
    return VectorField(rebuilt(v.tau), rebuilt(v.phi), rebuilt(v.phitilde))


def same_trees(got, want):
    return len(got) == len(want) and all(map(same_tree, got, want))


@pytest.mark.parametrize("name", sorted(SDES) + sorted(FLOAT_SDES))
def test_build_system_trees_type_strict(name):
    f, g = {**SDES, **FLOAT_SDES}[name]
    sde = Sde(p(f), p(g))
    cases = list(fields(g))
    with memo_off():
        want = [build_system(Sde(rebuilt(sde.drift), rebuilt(sde.diffusion)),
                             rebuilt_field(v), mode).residuals
                for v, mode in cases]
    for (v, mode), rows in zip(cases, want):
        assert same_trees(build_system(sde, v, mode).residuals, rows), \
            (name, str(v), mode)
    assert len(cases) == grid_size(g)


# source and target coefficients, maps and map dictionaries of the pair sets
COEFFS = ("0", "1", "2*t", "x", "x/2", "exp(-alpha*t)", "x*exp(alpha*t)",
          "-alpha*x + beta", "0.5*x", "t^2", "(1 + x^2)^(1/2)", "x*log(x)",
          "-1/2*exp(-2*alpha*t)")
MAPS = ("t", "x", "x*exp(-alpha*t)", "-1/2*exp(-2*alpha*t)", "log(x)",
        "0.3*t + x^2", "t*x")
BASES = (("1", "t"), ("1", "x", "x^2"), ("1", "x", "t", "t*x"),
         ("exp(-2*alpha*t)", "1"), ("1", "x*exp(-alpha*t)", "exp(-alpha*t)"))


def pair_set(seed):
    """Seeded pairs and a map: concrete, or a dictionary combination with
    one coefficient symbol per entry as solve_map builds it."""
    rng = np.random.default_rng(seed)

    def coeff(stochastic=True):
        if stochastic and rng.random() < 0.5:
            return p("0")
        return p(COEFFS[rng.integers(len(COEFFS))])

    def field():
        return VectorField(coeff(False), coeff(False), coeff())

    pairs = PairedSymmetries.from_tx(
        [(field(), field()) for _ in range(rng.integers(1, 4))])
    if rng.random() < 0.5:
        return pairs, p(MAPS[rng.integers(len(MAPS))]), p(MAPS[rng.integers(len(MAPS))])
    b1, b2 = (BASES[k] for k in rng.integers(len(BASES), size=2))
    names = [f"_c{i}" for i in range(len(b1) + len(b2))]
    mu1 = add(*[mul(param(n), p(e)) for n, e in zip(names, b1)])
    mu2 = add(*[mul(param(n), p(e)) for n, e in zip(names[len(b1):], b2)])
    return pairs, mu1, mu2


@pytest.mark.parametrize("start", range(0, 1000, 250))
def test_transformation_system_trees_equal(start):
    for seed in range(start, start + 250):
        pairs, mu1, mu2 = pair_set(seed)
        assert transformation_system(pairs, mu1, mu2).residuals == \
            transformation_system_written_out(pairs, mu1, mu2), seed


@pytest.mark.parametrize("start", range(0, 1000, 250))
def test_transformation_system_trees_type_strict(start):
    sets = [pair_set(seed) for seed in range(start, start + 250)]
    with memo_off():
        want = [transformation_system(
            PairedSymmetries(tuple((rebuilt_field(v), rebuilt_field(u))
                                   for v, u in pairs)),
            rebuilt(mu1), rebuilt(mu2)).residuals for pairs, mu1, mu2 in sets]
    for seed, s, rows in zip(range(start, start + 250), sets, want):
        assert same_trees(transformation_system(*s).residuals, rows), seed


@pytest.mark.parametrize("problem, mode, directions", [
    ("tests/golden/xlogx.prob", "stochastic", 1),
    ("tests/golden/ode-x2.prob", "det-ode", 2),
])
def test_q_device_builds_no_system_per_direction(monkeypatch, problem, mode,
                                                 directions):
    # stage 1 and stage 2 build one system each; every other build is
    # solve_symmetries' own, for the re-verification of a candidate that it
    # passes to max_residual
    pf = load_problem(os.path.join(ROOT, problem))
    calls = {"build_system": 0, "max_residual": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ansatz, "build_system",
                        counting("build_system", ansatz.build_system))
    monkeypatch.setattr(ansatz, "max_residual",
                        counting("max_residual", ansatz.max_residual))
    basis = solve_symmetries(pf.require_sde(), pf.ansatz, mode)
    assert basis.stage1_dimension == directions
    assert calls["build_system"] - calls["max_residual"] == 2
