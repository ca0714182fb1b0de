"""Problem files: line-oriented key/value format with sections.

Sections: [declare] (var/param declarations), [sde] (drift, diffusion),
[ansatz] (tau/phi/phitilde dictionaries), [target.sde], [map.ansatz]
(mu1/mu2 dictionaries) and [numeric] (window, seeds, tolerances, sizes;
one row of SETTINGS gives each key's accepted values and default).
`t` and `x` are always declared as variables; everything else must be
declared.  `#` starts a comment.

Ansatz dictionaries are sums of terms `poly(v1,...,vk; d)` (all monomials
of total degree <= d in the listed variables), optionally multiplied by an
exponential rate `exp(EXPR)*poly(...)`; a bare expression is also accepted
as a single dictionary entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

from .ansatz import DEFAULT_RANK_TOL, DEFAULT_WINDOW, Ansatz
from .determining import Sde
from .expr import Expr, ExprError, _exact_number, _tokens, mul, parse, simplify, var

BASE_VARIABLES = ("t", "x")


class ProblemError(ValueError):
    pass


class Setting(NamedTuple):
    convert: Callable  # text -> value, raising ValueError on malformed text
    ok: Callable       # the acceptance test on the converted value
    what: str          # the values `ok` accepts, for the error message
    default: object


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


# the rule and default of each [numeric] key; the flags --seed, --tol,
# --points, --paths, --window and --eps are read by the row of their name
SETTINGS = {
    "window": Setting(_floats, lambda w: len(w) == 4 and _finite(w)
                      and w[0] < w[1] and w[2] < w[3],
                      "four finite floats t0,t1,x0,x1 with t0 < t1 and x0 < x1",
                      DEFAULT_WINDOW),
    "seed": Setting(int, lambda v: v >= 0, "an integer >= 0", 2026),
    "tol": Setting(float, lambda v: 0 < v < math.inf, "a finite float > 0",
                   DEFAULT_RANK_TOL),
    "points": Setting(int, lambda v: v >= 1, "an integer >= 1", 64),
    "paths": Setting(int, lambda v: v >= 1, "an integer >= 1", 2000),
    "h": Setting(float, lambda v: 0 < v < math.inf, "a finite float > 0", 1e-3),
    "steps": Setting(int, lambda v: v >= 1, "an integer >= 1", 1000),
    "x0": Setting(float, math.isfinite, "a finite float", 1.0),
    "eps": Setting(float, lambda v: v != 0 and math.isfinite(v),
                   "a finite nonzero float", 0.2),
    "pin": Setting(_floats, lambda v: len(v) == 4 and _finite(v),
                   "four finite floats t0,x0,v1,v2", None),
}


def read_setting(key: str, text: str, where: str):
    """Convert and check the text of setting `key`, from a problem file's
    [numeric] line or from a flag; `where` names the source in the error."""
    rule = SETTINGS[key]
    try:
        value = rule.convert(text)
        if rule.ok(value):
            return value
    except ValueError:
        pass
    raise ProblemError(f"{where} must be {rule.what}, got {text!r}")


@dataclass
class ProblemFile:
    variables: tuple = BASE_VARIABLES
    params: dict = field(default_factory=dict)
    sde: Sde | None = None
    ansatz: Ansatz = Ansatz()
    target: Sde | None = None
    map_mu1: tuple = ()
    map_mu2: tuple = ()
    # every [numeric] setting: the file's value, else the table's default
    numeric: dict = field(
        default_factory=lambda: {k: s.default for k, s in SETTINGS.items()})
    path: str = "<memory>"

    def require_sde(self) -> Sde:
        if self.sde is None:
            raise ProblemError(f"{self.path}: missing [sde] section")
        return self.sde

    def window(self):
        return self.numeric["window"]

    def seed(self) -> int:
        return self.numeric["seed"]

    def simulation(self) -> dict:
        """The path-ensemble keywords of verify_map and verify_symmetry."""
        n = self.numeric
        return {"x0": n["x0"], "h": n["h"], "K": n["steps"],
                "n_paths": n["paths"], "seed": n["seed"]}


def _split_top_level(text: str) -> list:
    """The terms of an ansatz sum: `text` cut at each `+` token outside
    parentheses (a `+` in a literal's exponent is no token)."""
    parts, depth, start = [], 0, 0
    for kind, _, pos in _tokens(text):
        if kind == "(":
            depth += 1
        elif kind == ")":
            depth -= 1
        elif kind == "+" and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    parts.append(text[start:])
    return parts


def _poly_entries(spec: str, variables) -> list:
    """Expand `poly(v1,...,vk; d)` into monomials of total degree <= d."""
    inner = spec[len("poly("):-1]
    if ";" not in inner:
        raise ProblemError(f"poly spec '{spec}' needs a ';degree' part")
    vars_part, deg_part = inner.rsplit(";", 1)
    names = [v.strip() for v in vars_part.split(",") if v.strip()]
    try:
        degree = int(deg_part)
    except ValueError:
        raise ProblemError(f"poly degree '{deg_part.strip()}' is not an integer")
    if degree < 0:
        raise ProblemError("poly degree must be >= 0")
    if not names:  # would be the entry 1 alone
        raise ProblemError(f"poly spec '{spec}' names no variable")
    for nm in names:
        if nm not in variables:
            raise ProblemError(f"poly variable '{nm}' is not a declared variable")
    return [simplify(mul(*[var(nm) for nm in combo])) for d in range(degree + 1)
            for combo in combinations_with_replacement(names, d)]


def parse_ansatz_spec(text: str, variables, parameters) -> tuple:
    """Parse an ansatz dictionary spec into a tuple of distinct entries."""
    entries = []
    for raw in _split_top_level(text):
        term = raw.strip()
        if not term:
            continue
        if term.startswith("poly(") and term.endswith(")"):
            new = _poly_entries(term, variables)
        elif "*poly(" in term and term.endswith(")"):
            head, tail = term.rsplit("*poly(", 1)
            prefix = parse(head.strip(), variables, parameters)
            monomials = _poly_entries("poly(" + tail, variables)
            new = [simplify(mul(prefix, m)) for m in monomials]
        else:
            new = [simplify(parse(term, variables, parameters))]
        for e in new:
            if e not in entries:
                entries.append(e)
    return tuple(entries)


def _unique(entries, keys, what: str):
    """Yield the (where, key, value) entries in order, refusing a key
    outside `keys` (named `what` in the error) or one seen before."""
    seen = set()
    for where, key, value in entries:
        if key not in keys:
            raise ProblemError(f"{where}: unknown {what} '{key}'")
        if key in seen:
            raise ProblemError(f"{where}: duplicate {key}")
        seen.add(key)
        yield where, key, value


def _lines(text: str, path: str):
    """Yield (where, line) of each non-blank line with its comment cut,
    `where` naming it as path:line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield f"{path}:{lineno}", line


def _key_value(where: str, line: str, rhs: str):
    """(where, key, value) of a `key = rhs` line."""
    if "=" not in line:
        raise ProblemError(f"{where}: expected 'key = {rhs}'")
    key, value = line.split("=", 1)
    return where, key.strip(), value.strip()


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ProblemError(f"cannot read {what} {path}: {err}")


def _at(where: str, parse_, *args):
    """parse_(*args), its ExprError or ProblemError a ProblemError naming
    `where`."""
    try:
        return parse_(*args)
    except (ExprError, ProblemError) as err:
        raise ProblemError(f"{where}: {err}") from None


_KNOWN_SECTIONS = ("declare", "sde", "ansatz", "target.sde", "map.ansatz", "numeric")
_DICTIONARIES = {"ansatz": ("tau", "phi", "phitilde"), "map.ansatz": ("mu1", "mu2")}


def parse_problem_text(text: str, path: str = "<memory>") -> ProblemFile:
    variables = list(BASE_VARIABLES)
    params: dict = {}
    sections: dict = {}
    section = None
    for where, line in _lines(text, path):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_SECTIONS:
                raise ProblemError(f"{where}: unknown section [{section}]")
            sections.setdefault(section, [])
        elif section is None:
            raise ProblemError(f"{where}: content outside any section")
        elif section == "declare":
            kind, *parts = line.split()
            if kind == "var" and len(parts) == 1:
                nm, other = parts[0], params
            elif kind == "param":
                nm, eq, val = line[len("param"):].partition("=")
                nm, val, other = nm.strip(), val.strip(), variables
                if nm in params:
                    raise ProblemError(f"{where}: duplicate param {nm}")
            else:
                raise ProblemError(
                    f"{where}: expected 'var NAME' or 'param NAME [= value]'")
            if _tokens(nm)[0][:2] != ("ident", nm):  # a name, as expressions read it
                raise ProblemError(f"{where}: {kind} {nm!r} is not a name")
            if nm in other:
                raise ProblemError(f"{where}: {nm} is declared as var and as param")
            if kind == "param":
                try:  # the exact rational of the value, a number in the float range
                    params[nm] = _exact_number(val) if eq else None
                except (ValueError, OverflowError):
                    raise ProblemError(f"{where}: param {nm} must be a finite "
                                       f"number, got {val!r}") from None
            elif nm not in variables:
                variables.append(nm)
        else:
            sections[section].append(_key_value(where, line, "value"))

    pf = ProblemFile(variables=tuple(variables), params=params, path=path)

    def sde_of(name):
        parts = {key: _at(where, parse, value, pf.variables, tuple(params))
                 for where, key, value in _unique(
                     sections.get(name, []), ("drift", "diffusion"), f"[{name}] key")}
        if len(parts) < 2:
            raise ProblemError(
                f"{path}: [{name}] needs exactly one drift and one diffusion")
        return Sde(parts["drift"], parts["diffusion"], dict(params))

    if "sde" in sections:
        pf.sde = sde_of("sde")
    if "target.sde" in sections:
        pf.target = sde_of("target.sde")

    slots = {}
    for name, keys in _DICTIONARIES.items():
        for where, key, value in _unique(sections.get(name, []), keys,
                                         f"{name} slot"):
            slots[key] = _at(where, parse_ansatz_spec, value, pf.variables,
                             tuple(params))
    pf.ansatz = Ansatz(*(slots.get(k, ()) for k in _DICTIONARIES["ansatz"]))
    pf.map_mu1, pf.map_mu2 = (slots.get(k, ()) for k in _DICTIONARIES["map.ansatz"])

    for where, key, value in _unique(sections.get("numeric", []), SETTINGS,
                                     "numeric key"):
        pf.numeric[key] = read_setting(key, value, f"{where}: {key}")
    return pf


def load_problem(path: str) -> ProblemFile:
    return parse_problem_text(_read(path, "problem file"), path)


def parse_field_file(path: str, variables, parameters) -> dict:
    """Bare key=value file for a generator (tau/phi/phitilde) or a map
    (mu1/mu2); returns parsed expressions keyed by slot name."""
    lines = (_key_value(where, line, "expression")
             for where, line in _lines(_read(path, "file"), path))
    return {key: _at(where, parse, value, variables, parameters)
            for where, key, value in _unique(
                lines, ("tau", "phi", "phitilde", "mu1", "mu2"), "key")}
