"""Minimal symbolic kernel for scalar expressions.

Expression trees over a closed alphabet of node kinds: rational/float
constants, named variables and parameters, n-ary sums and products, powers,
quotients, exp, log, and negation.  Supports parsing, printing, exact
differentiation, simultaneous substitution, scalar and vectorized numeric
evaluation, and rule-based simplification to a canonical form.

Trees are immutable and hashable; all operations are pure functions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

# node kinds
CONST = "const"
VAR = "var"
PARAM = "param"
SUM = "sum"
PRODUCT = "product"
POWER = "power"
QUOTIENT = "quotient"
EXP = "exp"
LOG = "log"
NEG = "neg"

_ATOMS = (CONST, VAR, PARAM)

#: names treated as variables by default when parsing
DEFAULT_VARIABLES = ("t", "x", "y", "s")

SIMPLIFY_MAX_PASSES = 64


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(ParseError):
    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown symbol '{name}': not declared as variable or parameter", pos)
        self.name = name


class EvalError(ExprError):
    pass


class UnboundSymbolError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound symbol '{name}'")
        self.name = name


class DomainError(EvalError):
    def __init__(self, reason: str, offending: "Expr"):
        super().__init__(f"{reason} in subexpression '{offending}'")
        self.offending = offending


class Expr:
    """Immutable expression tree node."""

    __slots__ = ("kind", "children", "value", "name", "_hash")

    def __init__(self, kind, children=(), value=None, name=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "name", name)
        object.__setattr__(
            self, "_hash", hash((kind, self.children, value, name))
        )

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.kind == other.kind
            and self.value == other.value
            and self.name == other.name
            and self.children == other.children
        )

    def __repr__(self):
        return f"Expr({to_str(self)!r})"

    def __str__(self):
        return to_str(self)

    # arithmetic sugar for building trees in code
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, negate(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), negate(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return pow_(self, _coerce(other))

    def __neg__(self):
        return negate(self)

    def is_zero(self) -> bool:
        return self.kind == CONST and self.value == 0

    def is_one(self) -> bool:
        return self.kind == CONST and self.value == 1

    def is_const(self) -> bool:
        return self.kind == CONST


# ---------------------------------------------------------------------------
# constructors

def const(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, bool):
        raise TypeError("bool is not a constant")
    if isinstance(v, int):
        v = Fraction(v)
    elif not isinstance(v, (Fraction, float)):
        raise TypeError(f"unsupported constant type {type(v)!r}")
    return Expr(CONST, value=v)


ZERO = const(0)
ONE = const(1)
HALF = const(Fraction(1, 2))


def var(name: str) -> Expr:
    return Expr(VAR, name=name)


def param(name: str) -> Expr:
    return Expr(PARAM, name=name)


def _coerce(v) -> Expr:
    return v if isinstance(v, Expr) else const(v)


def add(*terms) -> Expr:
    """n-ary sum; flattens nested sums, drops nothing else."""
    flat = []
    for term in terms:
        term = _coerce(term)
        if term.kind == SUM:
            flat.extend(term.children)
        else:
            flat.append(term)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Expr(SUM, flat)


def mul(*factors) -> Expr:
    """n-ary product; flattens nested products."""
    flat = []
    for factor in factors:
        factor = _coerce(factor)
        if factor.kind == PRODUCT:
            flat.extend(factor.children)
        else:
            flat.append(factor)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Expr(PRODUCT, flat)


def pow_(base, exponent) -> Expr:
    return Expr(POWER, (_coerce(base), _coerce(exponent)))


def div(num, den) -> Expr:
    num, den = _coerce(num), _coerce(den)
    # integer/integer is a ratio literal, stored exactly (same rule as parse)
    if _is_int_const(num) and _is_int_const(den) and den.value != 0:
        return const(Fraction(num.value) / den.value)
    return Expr(QUOTIENT, (num, den))


def exp(u) -> Expr:
    return Expr(EXP, (_coerce(u),))


def log(u) -> Expr:
    return Expr(LOG, (_coerce(u),))


def negate(u) -> Expr:
    """Smart negation: folds constants, double negations, signed heads."""
    u = _coerce(u)
    if u.kind == CONST:
        return const(-u.value)
    if u.kind == NEG:
        return u.children[0]
    if u.kind == PRODUCT and u.children[0].kind == CONST:
        head = u.children[0]
        return mul(const(-head.value), *u.children[1:])
    if u.kind == QUOTIENT:
        return Expr(QUOTIENT, (negate(u.children[0]), u.children[1]))
    return Expr(NEG, (u,))


# ---------------------------------------------------------------------------
# symbol queries

def free_symbols(e: Expr) -> dict:
    """Map name -> kind (VAR or PARAM) over all leaves of e."""
    out = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if node.kind in (VAR, PARAM):
            out[node.name] = node.kind
        stack.extend(node.children)
    return out


def variables_of(e: Expr) -> set:
    return {n for n, k in free_symbols(e).items() if k == VAR}


def parameters_of(e: Expr) -> set:
    return {n for n, k in free_symbols(e).items() if k == PARAM}


def depends_on(e: Expr, name: str) -> bool:
    if e.kind in (VAR, PARAM):
        return e.name == name
    return any(depends_on(c, name) for c in e.children)


# ---------------------------------------------------------------------------
# differentiation

def diff(e: Expr, name: str) -> Expr:
    """Exact symbolic derivative of e with respect to the symbol `name`.

    Works for variables and, when needed internally, parameter symbols;
    everything else is held constant.  The result is simplified.
    """
    return simplify(_diff(e, name))


def _diff(e: Expr, name: str) -> Expr:
    k = e.kind
    if k == CONST:
        return ZERO
    if k in (VAR, PARAM):
        return ONE if e.name == name else ZERO
    if k == SUM:
        return add(*[_diff(c, name) for c in e.children])
    if k == PRODUCT:
        terms = []
        ch = e.children
        for i in range(len(ch)):
            terms.append(mul(*ch[:i], _diff(ch[i], name), *ch[i + 1:]))
        return add(*terms)
    if k == QUOTIENT:
        a, b = e.children
        num = add(mul(_diff(a, name), b), negate(mul(a, _diff(b, name))))
        return div(num, pow_(b, 2))
    if k == POWER:
        b, p = e.children
        db, dp = _diff(b, name), _diff(p, name)
        if not depends_on(p, name):
            # p constant in `name`: d(b^p) = p * b^(p-1) * b'
            return mul(p, pow_(b, add(p, const(-1))), db)
        if not depends_on(b, name):
            return mul(e, log(b), dp)
        return mul(e, add(mul(dp, log(b)), mul(p, div(db, b))))
    if k == EXP:
        (u,) = e.children
        return mul(e, _diff(u, name))
    if k == LOG:
        (u,) = e.children
        return div(_diff(u, name), u)
    if k == NEG:
        return negate(_diff(e.children[0], name))
    raise ExprError(f"cannot differentiate node kind {k!r}")


# ---------------------------------------------------------------------------
# substitution

def substitute(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Simultaneously replace named symbols (variables or parameters)."""
    if not bindings:
        return e
    if e.kind in (VAR, PARAM):
        repl = bindings.get(e.name)
        return repl if repl is not None else e
    if not e.children:
        return e
    new = [substitute(c, bindings) for c in e.children]
    if all(a is b for a, b in zip(new, e.children)):
        return e
    if e.kind == SUM:
        return add(*new)
    if e.kind == PRODUCT:
        return mul(*new)
    return Expr(e.kind, new, value=e.value, name=e.name)


# ---------------------------------------------------------------------------
# numeric evaluation

def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Evaluate at a point binding every variable and parameter by name."""
    k = e.kind
    if k == CONST:
        return float(e.value)
    if k in (VAR, PARAM):
        try:
            return float(point[e.name])
        except KeyError:
            raise UnboundSymbolError(e.name) from None
    if k == SUM:
        return math.fsum(evaluate(c, point) for c in e.children)
    if k == PRODUCT:
        r = 1.0
        for c in e.children:
            r *= evaluate(c, point)
        return r
    if k == QUOTIENT:
        num = evaluate(e.children[0], point)
        den = evaluate(e.children[1], point)
        if den == 0.0:
            raise DomainError("division by zero", e)
        return num / den
    if k == POWER:
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
    if k == EXP:
        u = evaluate(e.children[0], point)
        try:
            return math.exp(u)
        except OverflowError:
            raise DomainError("overflow in exp", e) from None
    if k == LOG:
        u = evaluate(e.children[0], point)
        if u <= 0.0:
            raise DomainError("log of a non-positive value", e)
        return math.log(u)
    if k == NEG:
        return -evaluate(e.children[0], point)
    raise ExprError(f"cannot evaluate node kind {k!r}")


def compile_fn(e: Expr, names: Sequence[str],
               bindings: Mapping[str, float] | None = None) -> Callable:
    """Compile e into a numpy-vectorized callable of positional arrays.

    `names` lists the runtime arguments in order; any remaining symbols must
    appear in `bindings`.  Domain violations produce nan/inf rather than
    raising (callers mask non-finite results).
    """
    index = {n: i for i, n in enumerate(names)}
    bindings = dict(bindings or {})

    def build(node):
        k = node.kind
        if k == CONST:
            v = float(node.value)
            return lambda args: v
        if k in (VAR, PARAM):
            if node.name in index:
                i = index[node.name]
                return lambda args: args[i]
            if node.name in bindings:
                v = float(bindings[node.name])
                return lambda args: v
            raise UnboundSymbolError(node.name)
        fns = [build(c) for c in node.children]
        if k == SUM:
            def _sum(args, fns=fns):
                r = fns[0](args)
                for f in fns[1:]:
                    r = r + f(args)
                return r
            return _sum
        if k == PRODUCT:
            def _prod(args, fns=fns):
                r = fns[0](args)
                for f in fns[1:]:
                    r = r * f(args)
                return r
            return _prod
        if k == QUOTIENT:
            fa, fb = fns
            return lambda args: fa(args) / fb(args)
        if k == POWER:
            fb, fp = fns
            return lambda args: fb(args) ** fp(args)
        if k == EXP:
            (fu,) = fns
            return lambda args: np.exp(fu(args))
        if k == LOG:
            (fu,) = fns
            return lambda args: np.log(fu(args))
        if k == NEG:
            (fu,) = fns
            return lambda args: -fu(args)
        raise ExprError(f"cannot compile node kind {k!r}")

    fn = build(e)

    def compiled(*args):
        with np.errstate(all="ignore"):
            return fn(args)

    return compiled


def evaluate_points(exprs: Sequence[Expr], points,
                    bindings: Mapping[str, float] | None = None,
                    extra: Sequence[str] = ()) -> np.ndarray:
    """Values of `exprs` at every point, as an array (len(points), len(exprs)).

    Each point is (t, x) followed by one value per name in `extra`; other
    symbols come from `bindings`.  Every expression is compiled once with
    `compile_fn` and evaluated over all points together, so a domain error
    (division by zero, log of a non-positive value, overflow) leaves a
    non-finite entry instead of raising.
    """
    names = ("t", "x", *extra)
    cols = np.asarray(points, dtype=float).reshape(-1, len(names)).T
    out = np.empty((cols.shape[1], len(exprs)))
    for j, e in enumerate(exprs):
        out[:, j] = compile_fn(e, names, bindings)(*cols)
    return out


def finite_points(exprs: Sequence[Expr], points,
                  bindings: Mapping[str, float] | None = None,
                  extra: Sequence[str] = ()) -> np.ndarray:
    """`evaluate_points`, raising EvalError at the first non-finite entry.

    The scalar reference `evaluate` explains the failure: the message names
    the point and, for a domain error, the offending subexpression.
    """
    values = evaluate_points(exprs, points, bindings, extra)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        point = np.asarray(points, dtype=float).reshape(values.shape[0], -1)[i]
        env = {**(bindings or {}), **dict(zip(("t", "x", *extra), point.tolist()))}
        try:
            reason = f"non-finite value {evaluate(exprs[j], env)} of '{exprs[j]}'"
        except EvalError as err:
            reason = str(err)
        raise EvalError(
            f"evaluation failed at point (t={env['t']}, x={env['x']}): {reason}")
    return values


# ---------------------------------------------------------------------------
# canonical ordering

_RANK = {CONST: 0, PARAM: 1, VAR: 2, POWER: 3, EXP: 4, LOG: 5,
         NEG: 6, QUOTIENT: 7, PRODUCT: 8, SUM: 9}


def _key(e: Expr):
    k = e.kind
    if k == CONST:
        return (0, float(e.value), str(e.value))
    if k in (PARAM, VAR):
        return (_RANK[k], e.name)
    return (_RANK[k],) + tuple(_key(c) for c in e.children)


# ---------------------------------------------------------------------------
# simplification

def simplify(e: Expr) -> Expr:
    """Rewrite to a fixed point under the rule set.

    Rules: constant folding, 0/1 identities, flattening and canonical
    ordering of sums/products, collection of identical terms and factors,
    exp/log cancellation.  Idempotent; semantics-preserving.
    """
    cur = e
    for _ in range(SIMPLIFY_MAX_PASSES):
        nxt = _simp(cur)
        if nxt == cur:
            return cur
        cur = nxt
    return cur


def _simp(e: Expr) -> Expr:
    k = e.kind
    if k in _ATOMS:
        return e
    if k == SUM:
        return _simp_sum([_simp(c) for c in e.children])
    if k == PRODUCT:
        return _simp_product([_simp(c) for c in e.children])
    if k == POWER:
        return _simp_power(_simp(e.children[0]), _simp(e.children[1]))
    if k == QUOTIENT:
        a = _simp(e.children[0])
        b = _simp(e.children[1])
        if a.kind == CONST and b.kind == CONST and b.value != 0:
            if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
                return const(a.value / b.value)
            return const(float(a.value) / float(b.value))
        return _simp_product([a, _simp_power(b, const(-1))])
    if k == NEG:
        u = _simp(e.children[0])
        if u.kind == CONST:
            return const(-u.value)
        return _simp_product([const(-1), u])
    if k == EXP:
        u = _simp(e.children[0])
        if u.is_zero():
            return ONE
        if u.kind == LOG:
            return u.children[0]
        if u.kind == CONST and isinstance(u.value, float):
            return const(math.exp(u.value))
        return exp(u)
    if k == LOG:
        u = _simp(e.children[0])
        if u.is_one():
            return ZERO
        if u.kind == EXP:
            return u.children[0]
        if u.kind == CONST and isinstance(u.value, float) and u.value > 0:
            return const(math.log(u.value))
        return log(u)
    raise ExprError(f"cannot simplify node kind {k!r}")


def _coeff_key(term: Expr):
    """Split a term into (numeric coefficient, non-constant key or None)."""
    if term.kind == CONST:
        return term.value, None
    if term.kind == NEG:
        c, key = _coeff_key(term.children[0])
        return -c, key
    if term.kind == PRODUCT:
        coeff = Fraction(1)
        rest = []
        for f in term.children:
            if f.kind == CONST:
                coeff = coeff * f.value
            else:
                rest.append(f)
        if not rest:
            return coeff, None
        key = rest[0] if len(rest) == 1 else Expr(PRODUCT, rest)
        return coeff, key
    return Fraction(1), term


def _make_term(coeff, key: Expr) -> Expr:
    if coeff == 1:
        return key
    if coeff == -1:
        return Expr(NEG, (key,))
    if key.kind == PRODUCT:
        return Expr(PRODUCT, (const(coeff),) + key.children)
    return Expr(PRODUCT, (const(coeff), key))


def _simp_sum(children) -> Expr:
    flat = []
    for c in children:
        if c.kind == SUM:
            flat.extend(c.children)
        else:
            flat.append(c)
    acc: dict = {}
    const_part = Fraction(0)
    for term in flat:
        coeff, key = _coeff_key(term)
        if key is None:
            const_part = const_part + coeff
        else:
            acc[key] = acc.get(key, Fraction(0)) + coeff
    terms = []
    if const_part != 0:
        terms.append(const(const_part))
    for key in sorted(acc, key=_key):
        if acc[key] != 0:
            terms.append(_make_term(acc[key], key))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=_key)
    return Expr(SUM, terms)


def _simp_product(children) -> Expr:
    flat = []
    stack = list(reversed(children))
    coeff = Fraction(1)
    while stack:
        c = stack.pop()
        if c.kind == PRODUCT:
            stack.extend(reversed(c.children))
        elif c.kind == NEG:
            coeff = -coeff
            stack.append(c.children[0])
        elif c.kind == CONST:
            coeff = coeff * c.value
        else:
            flat.append(c)
    if coeff == 0:
        return ZERO

    # merge powers of equal bases; pool exp() arguments additively
    bases: list = []       # insertion-ordered distinct bases
    expos: dict = {}       # base -> list of exponent Exprs
    exp_args: list = []
    for f in flat:
        if f.kind == EXP:
            exp_args.append(f.children[0])
            continue
        if f.kind == POWER:
            b, p = f.children
        else:
            b, p = f, ONE
        if b not in expos:
            bases.append(b)
            expos[b] = []
        expos[b].append(p)

    factors = []
    for b in bases:
        ps = expos[b]
        p = ps[0] if len(ps) == 1 else _simp_sum(ps)
        f = _simp_power(b, p)
        if f.kind == CONST:
            coeff = coeff * f.value
            if coeff == 0:
                return ZERO
        elif not f.is_one():
            factors.append(f)
    if exp_args:
        total = _simp_sum(exp_args) if len(exp_args) > 1 else exp_args[0]
        if not total.is_zero():
            factors.append(exp(total))

    factors.sort(key=_key)
    if not factors:
        return const(coeff)
    if coeff == 1:
        return factors[0] if len(factors) == 1 else Expr(PRODUCT, factors)
    if coeff == -1:
        inner = factors[0] if len(factors) == 1 else Expr(PRODUCT, factors)
        return Expr(NEG, (inner,))
    return Expr(PRODUCT, (const(coeff),) + tuple(factors))


def _is_int_const(e: Expr) -> bool:
    return (e.kind == CONST and isinstance(e.value, Fraction)
            and e.value.denominator == 1)


def _simp_power(b: Expr, p: Expr) -> Expr:
    if p.is_zero():
        return ONE
    if p.is_one():
        return b
    if b.is_one():
        return ONE
    if b.is_zero():
        if p.kind == CONST and float(p.value) > 0:
            return ZERO
        return Expr(POWER, (b, p))
    if b.kind == CONST and p.kind == CONST:
        bv, pv = b.value, p.value
        if _is_int_const(p):
            n = int(pv)
            if isinstance(bv, Fraction):
                if bv != 0 or n >= 0:
                    return const(bv ** n)
            else:
                return const(float(bv) ** n)
        bf, pf = float(bv), float(pv)
        if bf > 0:
            return const(bf ** pf)
        return Expr(POWER, (b, p))
    if b.kind == EXP:
        return _simp(exp(mul(b.children[0], p)))
    if b.kind == POWER and _is_int_const(p):
        return _simp_power(b.children[0], _simp(mul(b.children[1], p)))
    if b.kind in (PRODUCT, NEG) and _is_int_const(p):
        # integer powers distribute over products
        if b.kind == NEG:
            parts = [const(-1), b.children[0]]
        else:
            parts = list(b.children)
        return _simp_product([_simp_power(f, p) for f in parts])
    return Expr(POWER, (b, p))


# ---------------------------------------------------------------------------
# printing

def _needs_parens_in_product(f: Expr, first: bool) -> bool:
    if f.kind in (SUM, NEG):
        return True
    if f.kind == QUOTIENT and not first:
        return True
    if f.kind == CONST and _const_is_ratio(f):
        return not first
    return False


def _const_is_ratio(e: Expr) -> bool:
    return isinstance(e.value, Fraction) and e.value.denominator != 1


def _const_str(v) -> str:
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return repr(v)


def _split_negative(term: Expr):
    """For sum printing: return (True, positive-part) when term is negative."""
    if term.kind == NEG:
        return True, term.children[0]
    if term.kind == CONST and float(term.value) < 0:
        return True, const(-term.value)
    if term.kind == PRODUCT and term.children[0].kind == CONST \
            and float(term.children[0].value) < 0:
        head = const(-term.children[0].value)
        rest = term.children[1:]
        if head.is_one():
            inner = rest[0] if len(rest) == 1 else Expr(PRODUCT, rest)
        else:
            inner = Expr(PRODUCT, (head,) + rest)
        return True, inner
    return False, term


def to_str(e: Expr) -> str:
    """Render in the input grammar; parse(to_str(e)) reproduces the tree."""
    k = e.kind
    if k == CONST:
        v = e.value
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return str(v.numerator) if v >= 0 else f"-{-v.numerator}"
            s = f"{abs(v.numerator)}/{v.denominator}"
            return s if v >= 0 else "-" + s
        return repr(v)
    if k in (VAR, PARAM):
        return e.name
    if k == SUM:
        parts = [to_str(e.children[0])]
        for term in e.children[1:]:
            negative, body = _split_negative(term)
            s = to_str(body)
            if body.kind == SUM:
                s = f"({s})"
            parts.append((" - " if negative else " + ") + s)
        return "".join(parts)
    if k == PRODUCT:
        parts = []
        for i, f in enumerate(e.children):
            s = to_str(f)
            if _needs_parens_in_product(f, first=i == 0):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if k == QUOTIENT:
        a, b = e.children
        sa = to_str(a)
        if a.kind == SUM or (a.kind == CONST and _const_is_ratio(a)):
            sa = f"({sa})"
        sb = to_str(b)
        if b.kind in (SUM, PRODUCT, QUOTIENT, NEG) or (b.kind == CONST and _const_is_ratio(b)):
            sb = f"({sb})"
        return f"{sa}/{sb}"
    if k == POWER:
        b, p = e.children
        sb = to_str(b)
        b_bare = b.kind in (VAR, PARAM, EXP, LOG) or (
            b.kind == CONST and not _const_is_ratio(b) and float(b.value) >= 0)
        if not b_bare:
            sb = f"({sb})"
        sp = to_str(p)
        if p.kind in (SUM, PRODUCT, QUOTIENT) or (p.kind == CONST and _const_is_ratio(p)):
            sp = f"({sp})"
        return f"{sb}^{sp}"
    if k == EXP:
        return f"exp({to_str(e.children[0])})"
    if k == LOG:
        return f"log({to_str(e.children[0])})"
    if k == NEG:
        u = e.children[0]
        s = to_str(u)
        if u.kind in (SUM, PRODUCT, QUOTIENT, NEG):
            s = f"({s})"
        return f"-{s}"
    raise ExprError(f"cannot print node kind {k!r}")


# ---------------------------------------------------------------------------
# parsing
#
# expr     := ['-'] term (('+'|'-') term)*
# term     := factor (('*'|'/') factor)*
# factor   := '-' factor | base ['^' factor]
# base     := number | ident | '(' expr ')' | 'exp(' expr ')' | 'log(' expr ')'
#
# Integer and integer/integer literals become exact rationals; decimal or
# scientific literals become floats.  Unary minus on a literal folds into
# the constant.  Identifiers must be declared variables or parameters.

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                isfloat = False
                while j < n and text[j].isdigit():
                    j += 1
                if j < n and text[j] == ".":
                    isfloat = True
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        isfloat = True
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                self.tokens.append(("num", text[i:j], i, isfloat))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i, None))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i, None))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n, None))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text: str, variables, parameters):
        self.tz = _Tokenizer(text)
        self.variables = set(variables)
        self.parameters = set(parameters)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.tz.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        tok = self.tz.peek()
        if tok[0] == "-":
            self.tz.next()
            acc = negate(self.term())
        else:
            acc = self.term()
        while True:
            tok = self.tz.peek()
            if tok[0] == "+":
                self.tz.next()
                acc = add(acc, self.term())
            elif tok[0] == "-":
                self.tz.next()
                acc = add(acc, negate(self.term()))
            else:
                return acc

    def term(self) -> Expr:
        acc = self.factor()
        while True:
            tok = self.tz.peek()
            if tok[0] == "*":
                self.tz.next()
                acc = mul(acc, self.factor())
            elif tok[0] == "/":
                self.tz.next()
                rhs = self.factor()
                if _is_int_const(acc) and _is_int_const(rhs) and rhs.value != 0:
                    acc = const(Fraction(acc.value) / rhs.value)
                else:
                    acc = div(acc, rhs)
            else:
                return acc

    def factor(self) -> Expr:
        tok = self.tz.peek()
        if tok[0] == "-":
            self.tz.next()
            return negate(self.factor())
        b = self.base()
        if self.tz.peek()[0] == "^":
            self.tz.next()
            return pow_(b, self.factor())
        return b

    def base(self) -> Expr:
        tok = self.tz.next()
        kind, text, pos, isfloat = tok
        if kind == "num":
            return const(float(text) if isfloat else Fraction(int(text)))
        if kind == "(":
            e = self.expr()
            closing = self.tz.next()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            return e
        if kind == "ident":
            if text in ("exp", "log") and self.tz.peek()[0] == "(":
                self.tz.next()
                arg = self.expr()
                closing = self.tz.next()
                if closing[0] != ")":
                    raise ParseError("expected ')'", closing[2])
                return exp(arg) if text == "exp" else log(arg)
            if text in self.variables:
                return var(text)
            if text in self.parameters:
                return param(text)
            raise UnknownSymbolError(text, pos)
        raise ParseError(f"unexpected token {text!r}", pos)


def parse(text: str,
          variables: Iterable[str] = DEFAULT_VARIABLES,
          parameters: Iterable[str] = ()) -> Expr:
    """Parse `text` against a declared alphabet of variables and parameters."""
    return _Parser(text, variables, parameters).parse()
