"""The canonical form and sort key that each tree node keeps once computed.

`simplify` stores its result on the node it was given and marks every node
a pass leaves unchanged as its own canonical form; `_key` stores its tuple on
the node.  Every memo write goes through `expr._memo`.  The reference is the
same `simplify` and `_key` run on a memo-free rebuilt copy of the tree under
`memo_off()`, which makes that write a no-op (`simplify_unmemoized` in
conftest.py).  These tests check that the trees are the reference's
type-strictly, whichever nodes were simplified before, and that the memo
lives on its tree alone.  `parse` makes every literal an exact rational, so
the trees that mix float and rational constants are built with
`parse_floats`, whose decimal literals are float constants as the solver
makes them for unsnapped coefficients.
"""

import os
from fractions import Fraction

import pytest

from sdesym import expr as ex
from sdesym.ansatz import solve_symmetries
from sdesym.expr import add, const, parse, simplify, var
from sdesym.problem import load_problem

from conftest import (
    memo_off,
    parse_floats,
    random_expr,
    rebuilt,
    same_tree,
    simplify_unmemoized,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MIXED = ("1.0*x + 1", "x^2.0", "2.0*x*2 + x/2.0", "1.0*x - x", "x + 1",
         "x + 1.0", "x^2*x^2.0", "-0.0*x + 0.0", "(-0.0)^(-1) + x",
         "exp(0.0)*x + log(1.0)", "x/2 + x/2.0 + 0.5*x", "3*x - 1.5*x*2")


@pytest.mark.parametrize("text", MIXED)
def test_mixed_constants_type_strict(text):
    want = simplify_unmemoized(parse_floats(text))
    got = simplify(parse_floats(text))
    assert same_tree(got, want), (str(got), str(want))


def test_random_trees_type_strict(rng):
    for _ in range(500):
        e = random_expr(rng, 4)
        want = simplify_unmemoized(e)
        got = simplify(e)
        assert same_tree(got, want), ex.to_str(e)
        # idempotent without the memo's help
        assert same_tree(simplify_unmemoized(got), got), ex.to_str(e)


def test_shared_subtrees_type_strict(rng):
    # pieces reused in larger trees, as the builders do: canonical pieces,
    # and pieces whose first simplification happens inside a larger tree,
    # so that a node marked canonical after a pass that rewrote it shows
    for first in (simplify, lambda e: e):
        pieces = [first(random_expr(rng, 3)) for _ in range(40)]
        for _ in range(200):
            i, j, k = rng.integers(len(pieces), size=3)
            e = ex.mul(pieces[i], add(pieces[j], ex.negate(pieces[k])))
            assert same_tree(simplify(e), simplify_unmemoized(e)), ex.to_str(e)


@pytest.mark.parametrize("first", ["x + 1", "x + 1.0"])
def test_equal_trees_keep_their_own_constant_type(first):
    second = "x + 1.0" if first == "x + 1" else "x + 1"
    x = var("x")
    trees = {text: add(x, const(1 if text == "x + 1" else 1.0))
             for text in (first, second)}
    assert trees[first] != trees[second]  # == tells 1 from 1.0
    results = {text: simplify(trees[text]) for text in (first, second)}
    assert type(results["x + 1"].children[0].value) is Fraction
    assert type(results["x + 1.0"].children[0].value) is float
    # built afresh, in the same order
    for text in (first, second):
        assert same_tree(simplify(parse_floats(text)), results[text])


def test_simplify_twice_returns_the_identical_object():
    e = parse("x*x + 2*x - x + exp(t)*exp(t)")
    s = simplify(e)
    assert simplify(e) is s
    assert simplify(s) is s


def test_sort_key_is_kept_on_the_node():
    e = simplify(parse("x^2 + t*x + 1"))
    assert ex._key(e) is ex._key(e)
    with memo_off():
        assert ex._key(e) == ex._key(rebuilt(e))


def _containers():
    return {name: len(v) for name, v in vars(ex).items()
            if isinstance(v, (dict, list, set, frozenset, tuple))}


def test_solve_leaves_no_module_level_container_larger():
    before = _containers()
    pf = load_problem(os.path.join(ROOT, "tests", "golden", "xlogx.prob"))
    solve_symmetries(pf.require_sde(), pf.ansatz, "stochastic")
    after = _containers()
    assert after.keys() == before.keys()
    assert all(after[name] <= before[name] for name in before)
    # and no function of the module carries a cache
    assert not [name for name, v in vars(ex).items() if hasattr(v, "cache_info")]
