"""Minimal symbolic kernel for scalar expressions.

Expression trees over a closed alphabet of node kinds: constants, named
variables and parameters, n-ary sums and products, powers, quotients, exp,
log, and negation.  Supports parsing, printing, exact differentiation,
simultaneous substitution, vectorized numeric evaluation (`compile_fn`), and
rule-based simplification to a canonical form.

Every numeric literal, and every `param` value of a problem file, is an
exact rational (`0.3` is 3/10).  A float constant enters a tree only as a
solver coefficient that no rational snap accepts (`ansatz._coeff_const`),
and `==` tells it from a rational of equal value: 1.0 is not 1.

Trees are immutable and hashable; all operations are pure functions.  Each
node carries its canonical form and its sort key once they are computed;
there is no process-wide cache.
"""

from __future__ import annotations

import math
import re
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

#: the bits of a folded rational's numerator and of its denominator, above
#: the float range's 1,075: more cost time, and Python prints no integer of
#: more than 4,300 digits
_FOLD_BITS = 1100


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


_set = object.__setattr__
_memo = object.__setattr__  # every memo write; tests switch it off


class Expr:
    """Immutable expression tree node.

    Two private slots keep work done on the node with the node, never in
    a table keyed on trees (it would keep every tree it saw alive for the
    process): `_simplified` holds `simplify`'s result once computed, or
    True when the node is its own canonical form (the node itself would
    make a reference cycle), and `_sort_key` its canonical ordering key.
    """

    __slots__ = ("kind", "children", "value", "name", "_hash",
                 "_simplified", "_sort_key")

    def __init__(self, kind, children=(), value=None, name=None):
        children = tuple(children)
        _set(self, "kind", kind)
        _set(self, "children", children)
        _set(self, "value", value)
        _set(self, "name", name)
        _set(self, "_hash", hash((kind, children, value, name)))
        _set(self, "_simplified", None)
        _set(self, "_sort_key", None)

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
            and type(self.value) is type(other.value)
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

    def __sub__(self, other):
        return add(self, negate(_coerce(other)))

    def is_zero(self) -> bool:
        return self.kind == CONST and self.value == 0

    def is_one(self) -> bool:
        return self.kind == CONST and self.value == 1


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


def small_rational(v: float, max_den: int, rel_tol: float):
    """The fraction with denominator <= max_den nearest v, or None when it
    lies farther than rel_tol*max(1, |v|) from v."""
    frac = Fraction(v).limit_denominator(max_den)
    return frac if abs(float(frac) - v) <= rel_tol * max(1.0, abs(v)) else None


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
        if name not in free_symbols(p):
            # p constant in `name`: d(b^p) = p * b^(p-1) * b'
            return mul(p, pow_(b, add(p, const(-1))), db)
        if name not in free_symbols(b):
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

def _to_float(v) -> float:
    """float(v), or +-inf for a rational beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def compile_fn(e: Expr, names: Sequence[str],
               bindings: Mapping[str, float] | None = None) -> Callable:
    """Compile e into a numpy-vectorized callable of positional arrays.

    `names` lists the runtime arguments in order; any remaining symbols must
    appear in `bindings`.  Domain violations produce nan/inf rather than
    raising (callers mask non-finite results).  A subexpression without
    runtime arguments is folded once, on numpy scalars, so that this holds
    for it too.
    """
    index = {n: i for i, n in enumerate(names)}
    bindings = dict(bindings or {})

    def build(node):
        """A callable of the argument tuple, or a float when `node` has no
        runtime argument."""
        k = node.kind
        if k == CONST:
            return _to_float(node.value)
        if k in (VAR, PARAM):
            if node.name in index:
                i = index[node.name]
                return lambda args: args[i]
            if node.name in bindings:
                return _to_float(bindings[node.name])
            raise UnboundSymbolError(node.name)
        parts = [build(c) for c in node.children]
        if any(map(callable, parts)):
            return _node_fn(k, [p if callable(p) else (lambda args, v=p: v)
                                for p in parts])
        # Python floats raise where numpy scalars give inf or nan
        fn = _node_fn(k, [lambda args, v=np.float64(p): v for p in parts])
        return float(fn(()))

    with np.errstate(all="ignore"):
        fn = build(e)
    if not callable(fn):
        fn = (lambda args, v=fn: v)

    def compiled(*args):
        with np.errstate(all="ignore"):
            return fn(args)

    return compiled


def _node_fn(kind: str, fns) -> Callable:
    """The callable of a node of this kind over its children's callables."""
    if kind == SUM:
        def _sum(args):
            r = fns[0](args)
            for f in fns[1:]:
                r = r + f(args)
            return r
        return _sum
    if kind == PRODUCT:
        def _prod(args):
            r = fns[0](args)
            for f in fns[1:]:
                r = r * f(args)
            return r
        return _prod
    if kind == QUOTIENT:
        fa, fb = fns
        return lambda args: fa(args) / fb(args)
    if kind == POWER:
        fb, fp = fns
        return lambda args: fb(args) ** fp(args)
    if kind == EXP:
        (fu,) = fns
        return lambda args: np.exp(fu(args))
    if kind == LOG:
        (fu,) = fns
        return lambda args: np.log(fu(args))
    if kind == NEG:
        (fu,) = fns
        return lambda args: -fu(args)
    raise ExprError(f"cannot compile node kind {kind!r}")


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

    The message names the point and explains the value.  From the failing
    expression it walks down, at that point, into the first non-finite
    operand until it reaches a subexpression whose operands are finite; a
    domain error there (division by zero, log of a non-positive value,
    overflow, ...) is named together with that subexpression.  Otherwise
    (an overflowing sum, say) the message gives the expression's value.
    """
    values = evaluate_points(exprs, points, bindings, extra)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        point = np.asarray(points, dtype=float).reshape(values.shape[0], -1)[i]
        reason = f"non-finite value {float(values[i, j])} of '{exprs[j]}'"
        node = exprs[j]
        while node.children:
            ops = evaluate_points(node.children, point, bindings, extra)[0]
            worse = np.flatnonzero(~np.isfinite(ops))
            if worse.size:
                node = node.children[worse[0]]
                continue
            why = _domain_error(node.kind, ops.tolist())
            if why:
                reason = f"{why} in subexpression '{node}'"
            break
        t, x = point[:2].tolist()
        raise EvalError(f"evaluation failed at point (t={t}, x={x}): {reason}")
    return values


def _domain_error(kind: str, ops) -> str | None:
    """Why a node of this kind is non-finite on finite operand values."""
    a, b = ops[0], ops[-1]
    if kind == QUOTIENT and b == 0.0:
        return "division by zero"
    if kind == POWER:
        if a == 0.0 and b < 0.0:
            return "zero raised to a negative power"
        if a < 0.0 and b != math.floor(b):
            return "negative base with fractional exponent"
        return "overflow in power"
    if kind == EXP:
        return "overflow in exp"
    if kind == LOG and a <= 0.0:
        return "log of a non-positive value"
    return None


# ---------------------------------------------------------------------------
# canonical ordering

_RANK = {CONST: 0, PARAM: 1, VAR: 2, POWER: 3, EXP: 4, LOG: 5,
         NEG: 6, QUOTIENT: 7, PRODUCT: 8, SUM: 9}


def _key(e: Expr):
    key = e._sort_key
    if key is None:
        k = e.kind
        if k == CONST:
            key = (0, _to_float(e.value), str(e.value))
        elif k in (PARAM, VAR):
            key = (_RANK[k], e.name)
        else:
            key = (_RANK[k],) + tuple(map(_key, e.children))
        _memo(e, "_sort_key", key)
    return key


# ---------------------------------------------------------------------------
# simplification

def simplify(e: Expr) -> Expr:
    """Rewrite to a fixed point under the rule set.

    Rules: constant folding, 0/1 identities, flattening and canonical
    ordering of sums/products, collection of identical terms and factors,
    exp/log cancellation.  Idempotent; semantics-preserving.  The result
    is kept on e, and every node a pass leaves unchanged is marked as its
    own canonical form, so no tree is rewritten twice.
    """
    cur = e._simplified
    if cur is not None:
        return e if cur is True else cur
    cur = e
    for _ in range(SIMPLIFY_MAX_PASSES):
        nxt = _simp(cur)
        if nxt == cur:
            break
        cur = nxt
    if cur is not e:
        _memo(e, "_simplified", cur)
    return cur


def _simp(e: Expr) -> Expr:
    """One rewriting pass; a node it leaves unchanged is marked canonical
    and returned as it is from then on."""
    if e._simplified is True or e.kind in _ATOMS:
        return e
    out = _simp_node(e)
    if out == e:
        _memo(e, "_simplified", True)
        return e
    return out


def _simp_node(e: Expr) -> Expr:
    k = e.kind
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
            return const(_fold(a.value / b.value, QUOTIENT, (a, b)))
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
        return exp(u)
    if k == LOG:
        u = _simp(e.children[0])
        if u.is_one():
            return ZERO
        if u.kind == EXP:
            return u.children[0]
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
        coeff = 1
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
    return 1, term


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
    const_part = 0
    for term in flat:
        coeff, key = _coeff_key(term)
        if key is None:
            const_part = const_part + coeff
        else:
            acc[key] = acc.get(key, 0) + coeff
    for v in (const_part, *acc.values()):
        _fold(v, SUM, children)
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
    coeff = 1  # an int until it meets a constant; const() makes it a Fraction
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
    _fold(coeff, PRODUCT, children)
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


def _fold(v, kind: str, children):
    """v, a constant folded from the node (kind, children); ExprError names
    the node when v is a rational of more than _FOLD_BITS bits."""
    # x >> _FOLD_BITS is nonzero when x has more bits
    if not isinstance(v, float) and max(abs(v.numerator), v.denominator) >> _FOLD_BITS:
        raise ExprError(f"exact constant of more than {_FOLD_BITS} bits "
                        f"in subexpression '{Expr(kind, children)}'")
    return v


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
        if p.kind == CONST and p.value > 0:
            return ZERO
        return Expr(POWER, (b, p))
    if b.kind == CONST and _is_int_const(p):
        # folded only to a value in the float range, and only when n*log2 of
        # the base's terms, known before the power is, is within _FOLD_BITS
        v, n = b.value, int(p.value)
        try:
            if isinstance(v, float) or abs(n) * math.log2(
                    max(abs(v.numerator), v.denominator)) <= _FOLD_BITS:
                v = v ** n
                if math.isfinite(_to_float(v)):
                    return const(v)
        except OverflowError:
            pass  # left unfolded: evaluation reports the overflow
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


def _split_negative(term: Expr):
    """For sum printing: return (True, positive-part) when term is negative."""
    if term.kind == NEG:
        return True, term.children[0]
    if term.kind == CONST and term.value < 0:
        return True, const(-term.value)
    if term.kind == PRODUCT and term.children[0].kind == CONST \
            and term.children[0].value < 0:
        head = const(-term.children[0].value)
        rest = term.children[1:]
        if head.is_one():
            inner = rest[0] if len(rest) == 1 else Expr(PRODUCT, rest)
        else:
            inner = Expr(PRODUCT, (head,) + rest)
        return True, inner
    return False, term


def to_str(e: Expr) -> str:
    """Render in the input grammar; parse(to_str(e)) reproduces the tree,
    with each float constant as the exact rational of its repr."""
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
            b.kind == CONST and not _const_is_ratio(b) and b.value >= 0)
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
# Every number literal, integer, decimal or scientific, becomes the exact
# rational of its text (`0.3` is 3/10, `1e-3` is 1/1000), and so does an
# integer/integer ratio; a literal beyond the float range (above it, or a
# nonzero one below it) is refused.  Unary minus on a literal folds into the
# constant.  Identifiers must be declared variables or parameters.  The
# tokens are those of _TOKEN:
_TOKEN = re.compile(r"""
    \s*                   # \s is str.isspace
    (?:
      (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)   # \d is isdecimal
    | (?P<ident>\w+)      # \w is isalnum or _; a name starts with an
                          # isalpha() character or _, which _tokens tests
    | (?P<op>[-+*/^()])
    | (?P<end>\Z)
    | (?P<other>.)        # refused by the parser
    )""", re.VERBOSE | re.DOTALL)


def _tokens(text: str) -> list:
    """The (kind, text, position) tokens of `text`, the last one
    ("end", "", len(text)).  An operator's kind is its character; a
    character that starts no token is an "other" token, and so is a word
    that does not start as a name."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m[kind]
        if kind == "op":
            kind = tok
        elif kind == "ident" and not (tok[0].isalpha() or tok[0] == "_"):
            kind = "other"
        out.append((kind, tok, m.start(m.lastgroup)))
        if kind == "end":
            return out


def _exact_number(text: str) -> Fraction:
    """The exact rational of the number `text`: ValueError for malformed
    text and for a run of digits longer than Python converts to an int
    (4,300 by default), OverflowError beyond the float range (inf, nan, or a
    nonzero value whose float is 0).  The range is decided from float(text)
    before the rational is built, whose size grows with the exponent."""
    v = float(text)
    if v == 0.0 and float(re.split("[eE]", text)[0]) == 0.0:
        return Fraction(0)
    if v == 0.0 or not math.isfinite(v):
        raise OverflowError(f"{text!r} is beyond the float range")
    return Fraction(text)


class _Parser:
    def __init__(self, text: str, variables, parameters):
        self.tokens = _tokens(text)
        self.i = 0
        self.variables = set(variables)
        self.parameters = set(parameters)
        for kind, tok, pos in self.tokens:
            if kind == "other":
                raise ParseError(f"unexpected character {tok[0]!r}", pos)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def take(self, kind: str) -> bool:
        """Consume the next token if it is of this kind, and say so."""
        if self.tokens[self.i][0] != kind:
            return False
        self.i += 1
        return True

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        if self.take("-"):
            acc = negate(self.term())
        else:
            acc = self.term()
        while True:
            if self.take("+"):
                acc = add(acc, self.term())
            elif self.take("-"):
                acc = add(acc, negate(self.term()))
            else:
                return acc

    def term(self) -> Expr:
        acc = self.factor()
        while True:
            if self.take("*"):
                acc = mul(acc, self.factor())
            elif self.take("/"):
                acc = div(acc, self.factor())
            else:
                return acc

    def factor(self) -> Expr:
        if self.take("-"):
            return negate(self.factor())
        b = self.base()
        if self.take("^"):
            return pow_(b, self.factor())
        return b

    def base(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            try:
                return const(_exact_number(text))
            except OverflowError:
                raise ParseError(f"number {text!r} is beyond the float range",
                                 pos) from None
            except ValueError:  # a token is well formed: too many digits
                raise ParseError(f"number {text[:12]!r}... has too many "
                                 f"digits to read exactly", pos) from None
        # a parenthesized expression, or the argument of exp or log
        if kind == "(" or text in ("exp", "log") and self.take("("):
            e = self.expr()
            closing = self.next()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            if kind == "(":
                return e
            return exp(e) if text == "exp" else log(e)
        if kind == "ident":
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
