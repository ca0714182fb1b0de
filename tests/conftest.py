"""Shared test helpers: independent oracles and random expression trees."""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from sdesym import expr as ex
from sdesym import lie
from sdesym.ansatz import _field_features
from sdesym.numeric import FLOW_SUBSTEPS, _flow


def time_change(v, params, eps, times):
    """(beta, J) of the production flow of v at r = eps from `times`: the
    time change and its density, moved in one `_flow` pass of
    FLOW_SUBSTEPS."""
    tau, tau_t = (ex.compile_fn(e, ("t",), params)
                  for e in (v.tau, ex.diff(v.tau, "t")))
    J = np.ones(np.shape(times))
    return _flow(tau, tau_t, None, eps, FLOW_SUBSTEPS, times, J, []), J


# ---------------------------------------------------------------------------
# scalar tree walk (reference evaluator for compile_fn)

class DomainError(ex.EvalError):
    def __init__(self, reason: str, offending):
        super().__init__(f"{reason} in subexpression '{offending}'")
        self.offending = offending


def evaluate(e, point):
    """Evaluate at a point binding every variable and parameter by name,
    one Python float operation per node; raises DomainError at the first
    node (children left to right, then the node) that has no real value."""
    k = e.kind
    if k == ex.CONST:
        return float(e.value)
    if k in (ex.VAR, ex.PARAM):
        try:
            return float(point[e.name])
        except KeyError:
            raise ex.UnboundSymbolError(e.name) from None
    if k == ex.SUM:
        return math.fsum(evaluate(c, point) for c in e.children)
    if k == ex.PRODUCT:
        r = 1.0
        for c in e.children:
            r *= evaluate(c, point)
        return r
    if k == ex.QUOTIENT:
        num = evaluate(e.children[0], point)
        den = evaluate(e.children[1], point)
        if den == 0.0:
            raise DomainError("division by zero", e)
        return num / den
    if k == ex.POWER:
        b = evaluate(e.children[0], point)
        p = evaluate(e.children[1], point)
        try:
            r = b ** p
        except ZeroDivisionError:
            raise DomainError("zero raised to a negative power", e) from None
        except OverflowError:
            raise DomainError("overflow in power", e) from None
        if isinstance(r, complex):
            raise DomainError("negative base with fractional exponent", e)
        return float(r)
    if k == ex.EXP:
        u = evaluate(e.children[0], point)
        try:
            return math.exp(u)
        except OverflowError:
            raise DomainError("overflow in exp", e) from None
    if k == ex.LOG:
        u = evaluate(e.children[0], point)
        if u <= 0.0:
            raise DomainError("log of a non-positive value", e)
        return math.log(u)
    if k == ex.NEG:
        return -evaluate(e.children[0], point)
    raise ex.ExprError(f"cannot evaluate node kind {k!r}")


def express_in_basis(generators, target, points, params):
    """Least-squares coordinates of `target` in the generator span.

    Returns (coeffs, relative residual in max norm on the grid).
    """
    if generators:
        F = np.column_stack([_field_features(g, points, params) for g in generators])
    else:
        F = np.zeros((3 * len(points), 0))
    y = _field_features(target, points, params)
    if F.shape[1] == 0:
        coeffs = np.zeros(0)
        resid = y
    else:
        coeffs, *_ = np.linalg.lstsq(F, y, rcond=None)
        resid = F @ coeffs - y
    scale = max(1.0, float(np.max(np.abs(y))))
    return coeffs, float(np.max(np.abs(resid))) / scale


# ---------------------------------------------------------------------------
# every-restart basis match (reference for lie.match_basis's early stop)

def match_basis_all_restarts(src, tgt, seed=0):
    """lie.match_basis as it ran before it stopped early: all 64 restarts
    run, and the final gate checks the residual only.  Returns the
    BasisMatch and the restart index of the winning candidate (None when
    nothing matched).  It calls lie's own _gauss_newton_match, _sparsify,
    _normalize_rows and _snap_small_rationals, so it pins the early stop
    only, not those steps."""
    if src.n != tgt.n:
        return lie.BasisMatch(np.eye(max(src.n, tgt.n)), math.inf, False), None
    n = src.n
    S, T = src.c, tgt.c
    rng = np.random.default_rng(seed)
    pool = lie._restart_pool(S, T)

    def holds(B):
        return (float(np.max(np.abs(lie._match_residual(B, S, T)))) < lie.MATCH_TOL
                and abs(np.linalg.det(B)) > 1e-9)

    best = None  # (n_nonzeros, restart_index, A, residual)
    for k in range(64):
        if k == 0:
            A0 = np.eye(n)
        else:
            A0 = rng.choice(pool, size=(n, n)) + rng.normal(0.0, 0.05, size=(n, n))
        A, _ = lie._gauss_newton_match(A0, S, T)
        resid = float(np.max(np.abs(lie._match_residual(A, S, T))))
        if resid >= lie.MATCH_TOL or abs(np.linalg.det(A)) <= 1e-9:
            continue
        A = lie._sparsify(A, S, T, lie.MATCH_TOL)
        A = lie._normalize_rows(A, holds)
        A[np.abs(A) < 1e-7] = 0.0
        A = lie._snap_small_rationals(A, 64, 1e-6, holds)
        resid = float(np.max(np.abs(lie._match_residual(A, S, T))))
        if resid >= lie.MATCH_TOL:
            continue
        cand = (int(np.count_nonzero(A)), k, A, resid)
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:
        return lie.BasisMatch(np.eye(n), math.inf, False), None
    _, k, A, resid = best
    return lie.BasisMatch(A, resid, True), k


# ---------------------------------------------------------------------------
# determining rows and map conditions with Ito's formula written out per row
# (reference trees for determining.build_system and
# transform.transformation_system)

def _ito_written_out(u, w):
    if w.is_zero():
        return ex.ZERO
    return ex.mul(ex.HALF, ex.diff(ex.diff(u, "x"), "x"), w, w)


def build_system_written_out(sde, v, mode):
    """determining.build_system as it was written before its rows shared
    one Ito helper; returns the residual tuple."""
    diff, mul, HALF, _ito = ex.diff, ex.mul, ex.HALF, _ito_written_out
    f, g = sde.drift, sde.diffusion
    tau, phi, pt = v.tau, v.phi, v.phitilde
    rows = [mul(diff(f, "t"), tau) + mul(diff(tau, "t"), f) + mul(diff(f, "x"), phi)
            + _ito(f, pt) - diff(phi, "t") - mul(diff(phi, "x"), f) - _ito(phi, g)]
    if mode != "classical":
        rows.append(mul(diff(f, "x"), pt) - diff(pt, "t") - mul(diff(pt, "x"), f)
                    - _ito(pt, g))
    if mode != "det-ode":
        rows.append(mul(diff(g, "t"), tau) + mul(HALF, diff(tau, "t"), g)
                    + mul(diff(g, "x"), phi) + _ito(g, pt) - mul(diff(phi, "x"), g))
    if mode == "stochastic":
        rows.append(mul(diff(g, "x"), pt) - mul(diff(pt, "x"), g))
    return tuple(ex.simplify(r) for r in rows)


def transformation_system_written_out(pairs, mu1, mu2):
    """transform.transformation_system as it was written before it shared
    build_system's Ito helper; returns the residual tuple."""
    diff, mul, add, HALF, simplify = ex.diff, ex.mul, ex.add, ex.HALF, ex.simplify
    comp = {"s": mu1, "y": mu2}
    mu1_t, mu1_x = diff(mu1, "t"), diff(mu1, "x")
    mu1_xx = diff(mu1_x, "x")
    mu2_t, mu2_x = diff(mu2, "t"), diff(mu2, "x")
    mu2_xx = diff(mu2_x, "x")
    residuals = []
    for v, u in pairs:
        tau, phi, pt = v.tau, v.phi, v.phitilde
        pt2 = mul(pt, pt)
        rho_c = ex.substitute(u.tau, comp)
        psi_c = ex.substitute(u.phi, comp)
        psit_c = ex.substitute(u.phitilde, comp)
        residuals.append(simplify(add(
            rho_c, mul(-1, mul(mu1_t, tau)), mul(-1, mul(mu1_x, phi)),
            mul(-1, mul(HALF, mu1_xx, pt2)))))
        residuals.append(simplify(mul(mu1_x, pt)))
        residuals.append(simplify(add(
            psi_c, mul(-1, mul(mu2_t, tau)), mul(-1, mul(mu2_x, phi)),
            mul(-1, mul(HALF, mu2_xx, pt2)))))
        residuals.append(simplify(add(psit_c, mul(-1, mul(mu2_x, pt)))))
    return tuple(residuals)


# ---------------------------------------------------------------------------
# float constants, as the solver makes them for unsnapped coefficients

class _FloatLiteralParser(ex._Parser):
    def base(self):
        kind, text, _ = self.peek()
        if kind == "num" and not text.isdecimal():
            self.next()
            return ex.const(float(text))
        return super().base()


def parse_floats(text, variables=ex.DEFAULT_VARIABLES, parameters=()):
    """parse, except that a decimal or scientific literal becomes the float
    constant const(float(text)) instead of an exact rational."""
    return _FloatLiteralParser(text, variables, parameters).parse()


def exact_floats(e: ex.Expr) -> ex.Expr:
    """e with each float constant replaced by the exact rational of its
    repr: the tree that parse(to_str(e)) gives back."""
    if e.kind == ex.CONST:
        return ex.const(Fraction(repr(e.value))) if isinstance(e.value, float) else e
    if not e.children:
        return e
    return ex.Expr(e.kind, [exact_floats(c) for c in e.children], e.value, e.name)


# ---------------------------------------------------------------------------
# simplification with the memo switched off (reference trees for the memo)

@contextmanager
def memo_off():
    """expr.simplify and expr._key with every memo write a no-op: no node
    keeps its canonical form or sort key, so every call rewrites the whole
    tree and every sort builds the keys again."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ex, "_memo", lambda node, slot, value: None)
        yield


def rebuilt(e: ex.Expr) -> ex.Expr:
    """e rebuilt node by node, with no memo slot filled."""
    return ex.Expr(e.kind, [rebuilt(c) for c in e.children], e.value, e.name)


def simplify_unmemoized(e: ex.Expr) -> ex.Expr:
    """expr.simplify of a memo-free copy of e, with the memo switched off:
    a tree that cannot depend on which nodes were simplified before."""
    with memo_off():
        return ex.simplify(rebuilt(e))


def same_tree(a, b) -> bool:
    """Type-strict tree identity: kinds, names and, of every constant, the
    type and repr, so also the sign of zero (== takes 0.0 for -0.0)."""
    if a is b:
        return True
    if (a.kind, a.name, len(a.children)) != (b.kind, b.name, len(b.children)):
        return False
    if a.kind == ex.CONST and (type(a.value) is not type(b.value)
                               or repr(a.value) != repr(b.value)):
        return False
    return all(same_tree(x, y) for x, y in zip(a.children, b.children))


# ---------------------------------------------------------------------------
# sympy bridge (independent symbolic oracle)

def to_sympy(e):
    k = e.kind
    if k == ex.CONST:
        v = e.value
        if isinstance(v, Fraction):
            return sp.Rational(v.numerator, v.denominator)
        return sp.Float(v, 17)
    if k in (ex.VAR, ex.PARAM):
        return sp.Symbol(e.name)
    args = [to_sympy(c) for c in e.children]
    if k == ex.SUM:
        return sp.Add(*args)
    if k == ex.PRODUCT:
        return sp.Mul(*args)
    if k == ex.POWER:
        return sp.Pow(args[0], args[1])
    if k == ex.QUOTIENT:
        return args[0] / args[1]
    if k == ex.EXP:
        return sp.exp(args[0])
    if k == ex.LOG:
        return sp.log(args[0])
    if k == ex.NEG:
        return -args[0]
    raise AssertionError(f"unhandled kind {k}")


def collection_nullspace_dim(residuals, unknowns, param_values=None):
    """Exhaustive symbolic coefficient collection: expand each residual,
    write it as sum_k c_k * E_k(t, x), decompose every E_k into canonical
    (monomial x exponential) terms, and equate the per-term coefficients to
    zero.  Returns the exact nullspace dimension of that linear system."""
    param_values = param_values or {}
    cs = [sp.Symbol(u) for u in unknowns]
    subs = {sp.Symbol(k): sp.nsimplify(v) for k, v in param_values.items()}
    rows = {}
    for ridx, res in enumerate(residuals):
        expr = sp.expand(to_sympy(res).subs(subs))
        const_part = expr.subs({c: 0 for c in cs})
        assert sp.simplify(const_part) == 0, "oracle expects homogeneous systems"
        for k, c in enumerate(cs):
            coeff_fn = sp.expand(sp.diff(expr, c))
            assert not coeff_fn.free_symbols & set(cs), "system is not affine"
            for term in sp.Add.make_args(coeff_fn):
                num, fn = term.as_coeff_Mul()
                key = (ridx, sp.srepr(fn))
                if key not in rows:
                    rows[key] = [sp.Integer(0)] * len(cs)
                rows[key][k] += num
    if not rows:
        return len(unknowns)
    M = sp.Matrix(list(rows.values()))
    return len(M.nullspace())


# ---------------------------------------------------------------------------
# random expression trees (grammar-shaped, kept away from singularities)

LEAVES = ("t", "x", "a", 1, 2, 3, Fraction(1, 2), 0.7)


def random_expr(rng: np.random.Generator, depth: int):
    if depth <= 0 or rng.random() < 0.25:
        leaf = LEAVES[rng.integers(len(LEAVES))]
        if leaf == "t" or leaf == "x":
            return ex.var(leaf)
        if leaf == "a":
            return ex.param("a")
        return ex.const(leaf)
    kind = rng.integers(7)
    if kind == 0:
        return ex.add(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 1:
        return ex.mul(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == 2:
        return ex.pow_(random_expr(rng, depth - 1), ex.const(int(rng.integers(2, 4))))
    if kind == 3:
        den = (ex.var("x"), ex.add(ex.var("t"), ex.const(1)),
               ex.const(2))[rng.integers(3)]
        return ex.div(random_expr(rng, depth - 1), den)
    if kind == 4:
        arg = ex.mul(ex.const(Fraction(rng.integers(-2, 3), 2)),
                     (ex.var("t"), ex.var("x"))[rng.integers(2)])
        return ex.exp(arg)
    if kind == 5:
        arg = (ex.var("x"), ex.add(ex.var("t"), ex.const(2)))[rng.integers(2)]
        return ex.log(arg)
    return ex.negate(random_expr(rng, depth - 1))


def random_point(rng: np.random.Generator):
    return {"t": float(rng.uniform(0.3, 1.5)),
            "x": float(rng.uniform(0.6, 1.8)),
            "a": float(rng.uniform(0.5, 1.5))}


def horner(coeffs, x: float) -> float:
    """Independent polynomial evaluation, highest degree first."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
