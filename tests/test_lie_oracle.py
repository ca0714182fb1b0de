"""The early stop of `match_basis` against the every-restart search.

`match_basis_all_restarts` (conftest) runs all 64 Gauss-Newton restarts and
keeps the sparsest accepted candidate, the earliest on a tie.  An invertible
n x n matrix has at least n nonzeros, so once a candidate with n nonzeros is
accepted no later restart can replace it: the early stop must return the
same `BasisMatch`, bit for bit.
"""

import functools
import os

import numpy as np
import pytest

from sdesym import cli, lie
from sdesym.ansatz import sample_points
from sdesym.problem import load_problem, parse_problem_text

from conftest import match_basis_all_restarts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 21)


def prob(name):
    return os.path.join(ROOT, "problems", name)


AFFINE, BROWNIAN, LANGEVIN, AXINV = (
    prob(f"{name}.prob") for name in ("langevin-affine", "brownian", "langevin", "axinv"))
ABELIAN = os.path.join(ROOT, "tests", "golden", "brownian-abelian.prob")
# Brownian motion with phi = x: d/dt and 2t d/dt + x d/dx, isomorphic to axinv
SCALING = "brownian-scaling"

PAIRS = [(AFFINE, BROWNIAN), (LANGEVIN, BROWNIAN), (AXINV, SCALING),
         (AXINV, ABELIAN), (BROWNIAN, LANGEVIN), (AFFINE, LANGEVIN)]


@functools.lru_cache(maxsize=None)
def table(path, seed):
    """The commutator table `match` and `find-map` build at --seed `seed`."""
    if path == SCALING:
        with open(BROWNIAN) as fh:
            pf = parse_problem_text(fh.read().replace("phi = poly(x;1)", "phi = x"))
    else:
        pf = load_problem(path)
    pf.numeric["seed"] = seed
    basis = cli._solve(pf, "classical")
    params = pf.require_sde().bound_params()
    pts = sample_points(32, pf.window(), seed + 17, params=params)
    return lie.structure_constants(list(basis), pts, params)


@functools.lru_cache(maxsize=None)
def oracle(src, tgt, seed):
    return match_basis_all_restarts(table(src, seed), table(tgt, seed), seed)


def assert_same(got, want):
    assert np.array_equal(got.A, want.A)
    assert got.residual == want.residual
    assert got.matched == want.matched


def name(path):
    return os.path.basename(path).removesuffix(".prob")


@pytest.mark.parametrize("src, tgt", PAIRS, ids=[f"{name(s)}-{name(t)}" for s, t in PAIRS])
def test_early_stop_matches_every_restart(src, tgt):
    matched = 0
    for seed in SEEDS:
        want, _ = oracle(src, tgt, seed)
        assert_same(lie.match_basis(table(src, seed), table(tgt, seed), seed), want)
        matched += want.matched
    assert matched == (0 if tgt == ABELIAN else len(SEEDS))


def conjugate(sc, B):
    """Table of the basis Y_i = sum_p B[i, p] X_p."""
    c = np.einsum("ip,jq,spq,sr->rij", B, B, sc.c, np.linalg.inv(B))
    return lie.StructureConstants(c, sc.n)


def test_early_stop_on_conjugated_tables():
    rng = np.random.default_rng(17)
    bases = [(table(AFFINE, 1), table(BROWNIAN, 1)), (table(AXINV, 1), table(SCALING, 1)),
             (table(AXINV, 1), table(ABELIAN, 1))]
    cases = matched = 0
    for src, tgt in bases:
        for _ in range(5):
            while True:
                B = rng.integers(-2, 3, size=(src.n, src.n)).astype(float)
                if abs(np.linalg.det(B)) > 0.5:
                    break
            seed = int(rng.integers(1, 10**6))
            for a, b in ((conjugate(src, B), tgt), (src, conjugate(tgt, B))):
                want, _ = match_basis_all_restarts(a, b, seed)
                assert_same(lie.match_basis(a, b, seed), want)
                cases += 1
                matched += want.matched
    assert (cases, matched) == (30, 20)


def count_runs(monkeypatch):
    """Record each later `_gauss_newton_match` run: True for a restart,
    False for a masked polish inside `_sparsify`.  The real function does
    the work."""
    runs = []
    real = lie._gauss_newton_match

    def counting(A0, S, T, mask=None, **kw):
        runs.append(mask is None)
        return real(A0, S, T, mask, **kw)

    monkeypatch.setattr(lie, "_gauss_newton_match", counting)
    return runs


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_stops_after_the_first_n_nonzero_match(seed, monkeypatch):
    # the oracle's winner is its earliest start with n = 3 nonzeros
    want, k = oracle(AFFINE, BROWNIAN, seed)
    assert want.matched and np.count_nonzero(want.A) == 3
    restarts = count_runs(monkeypatch)
    got = lie.match_basis(table(AFFINE, seed), table(BROWNIAN, seed), seed)
    assert_same(got, want)
    assert sum(restarts) == k + 1
    assert len(restarts) < 64


def test_no_match_runs_every_restart(monkeypatch):
    restarts = count_runs(monkeypatch)
    got = lie.match_basis(table(AXINV, 1), table(ABELIAN, 1), 1)
    assert not got.matched
    assert sum(restarts) == 64
