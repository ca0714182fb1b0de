"""Determining systems for symmetries of scalar Ito SDEs dX = f dt + g dW.

One builder produces the symbolic residuals in the generator components
(tau, phi, phitilde): the four-equation stochastic system, its
two-equation classical reduction (phitilde == 0) and its two-equation
specialization for deterministic ODEs (g == 0).  A vector field is a
symmetry exactly when every residual vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import (
    Expr,
    HALF,
    ONE,
    ZERO,
    _split_negative,
    add,
    diff,
    mul,
    negate,
    simplify,
    to_str,
    variables_of,
)


class DeterminingError(ValueError):
    pass


@dataclass(frozen=True)
class Sde:
    """Scalar Ito SDE with drift f(t, x) and diffusion g(t, x).

    `params` maps declared parameter names to an optional numeric value
    (None = symbolic only).
    """

    drift: Expr
    diffusion: Expr
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, e in (("drift", self.drift), ("diffusion", self.diffusion)):
            extra = variables_of(e) - {"t", "x"}
            if extra:
                raise DeterminingError(
                    f"{name} may only mention variables t and x, got {sorted(extra)}")

    def bound_params(self) -> dict:
        return {k: v for k, v in self.params.items() if v is not None}

    def is_deterministic(self) -> bool:
        return simplify(self.diffusion).is_zero()


@dataclass(frozen=True)
class VectorField:
    """Symmetry generator v = [tau d/dt + phi d/dx]^D + [phitilde d/dx]^S."""

    tau: Expr = ZERO
    phi: Expr = ZERO
    phitilde: Expr = ZERO

    def has_stochastic_part(self) -> bool:
        return not simplify(self.phitilde).is_zero()

    def is_zero(self) -> bool:
        return (simplify(self.tau).is_zero() and simplify(self.phi).is_zero()
                and simplify(self.phitilde).is_zero())

    def time_only_tau(self) -> bool:
        return "x" not in variables_of(self.tau)

    def __str__(self):
        det = ""
        for coef, d in ((self.tau, "d/dt"), (self.phi, "d/dx")):
            if not simplify(coef).is_zero():
                negative, coef = _split_negative(simplify(coef)) if det else (False, coef)
                det += (" - " if negative else " + ") if det else ""
                det += f"{_coef_str(coef)}{d}"
        parts = [f"[{det}]^D"] if det else []
        if not simplify(self.phitilde).is_zero():
            parts.append(f"[{_coef_str(self.phitilde)}d/dx]^S")
        return " + ".join(parts) if parts else "0"


def _coef_str(e: Expr) -> str:
    e = simplify(e)
    if e.is_one():
        return ""
    s = to_str(e)
    return f"({s}) " if e.kind == "sum" else f"{s} "


@dataclass(frozen=True)
class DeterminingSystem:
    """Symbolic residuals, affine in the listed unknown coefficient symbols."""

    residuals: tuple
    unknowns: tuple = ()


def _derivatives(u: Expr, second: bool = True) -> tuple:
    """(u_t, u_x, u_xx): the derivatives of u that Ito's formula reads.
    u_xx is None unless `second`: no term along a zero noise w reads it."""
    u_x = diff(u, "x")
    return diff(u, "t"), u_x, diff(u_x, "x") if second else None


def _ito_terms(du: tuple, tau: Expr, phi: Expr, w: Expr) -> list:
    """Ito's formula for u(t, X) along (tau, phi, w), du = _derivatives(u):
    the terms u_t*tau, u_x*phi and (1/2)*u_xx*w^2, the last 0 when w is."""
    u_t, u_x, u_xx = du
    return [mul(u_t, tau), mul(u_x, phi),
            ZERO if w.is_zero() else mul(HALF, u_xx, w, w)]


def build_system(sde: Sde, v: VectorField, mode: str) -> DeterminingSystem:
    """Residuals of the determining system; mode is 'classical',
    'stochastic' or 'det-ode'.

    The rows are Ito's formula along the generator, written once in
    `_ito_terms`: with A = d/dt + f d/dx + (1/2) g^2 d^2/dx^2 the SDE's
    generator, Ito(u) the terms of u along v = (tau, phi, phitilde) and
    Au those of u along (1, f, g), the stochastic system has four rows:

    (i)   Ito(f) + tau_t*f - A phi
    (ii)  f_x*phitilde - A phitilde
    (iii) Ito(g) + (1/2)*tau_t*g - phi_x*g
    (iv)  g_x*phitilde - phitilde_x*g

    'classical' keeps (i) and (iii) and requires phitilde == 0; 'det-ode'
    keeps (i) and (ii) and requires g == 0.  tau must depend on t only.
    Each row is one flat sum whose subtracted terms are negated one by one
    (simplify keeps a negated sum whole, so grouping them changes trees).
    """
    if mode not in ("classical", "stochastic", "det-ode"):
        raise DeterminingError(f"unknown mode {mode!r}")
    if not v.time_only_tau():
        raise DeterminingError("tau must depend on t only in a determining system")
    if mode == "classical" and v.has_stochastic_part():
        raise DeterminingError("classical system requires phitilde == 0")
    if mode == "det-ode" and not sde.is_deterministic():
        raise DeterminingError("deterministic-ODE system requires g == 0")
    f, g = sde.drift, sde.diffusion
    tau, phi, pt = v.tau, v.phi, v.phitilde
    along_pt, along_g = not pt.is_zero(), not g.is_zero()
    df, dphi = _derivatives(f, along_pt), _derivatives(phi, along_g)
    tau_t = diff(tau, "t")
    rows = [add(*_ito_terms(df, tau, phi, pt), mul(tau_t, f),
                *map(negate, _ito_terms(dphi, ONE, f, g)))]
    if mode != "classical":
        dpt = _derivatives(pt, along_g)
        rows.append(add(mul(df[1], pt), *map(negate, _ito_terms(dpt, ONE, f, g))))
    if mode != "det-ode":
        dg = _derivatives(g, along_pt)
        rows.append(add(*_ito_terms(dg, tau, phi, pt), mul(HALF, tau_t, g),
                        negate(mul(dphi[1], g))))
    if mode == "stochastic":
        rows.append(add(mul(dg[1], pt), negate(mul(dpt[1], g))))
    return DeterminingSystem(tuple(simplify(r) for r in rows))


# residual indices of the subsystem involving only phitilde, per mode
PHITILDE_ROWS = {"classical": (), "stochastic": (1, 3), "det-ode": (1,)}
