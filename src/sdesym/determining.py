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
    ZERO,
    _split_negative,
    diff,
    mul,
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


def _ito(u: Expr, w: Expr) -> Expr:
    """(1/2)*u_xx*w^2, the Ito term of u along w; 0, with u_xx never
    formed, when w is the constant 0 (as phitilde in a classical system or
    g for an ODE usually is)."""
    if w.is_zero():
        return ZERO
    return mul(HALF, diff(diff(u, "x"), "x"), w, w)


def build_system(sde: Sde, v: VectorField, mode: str) -> DeterminingSystem:
    """Residuals of the determining system; mode is 'classical',
    'stochastic' or 'det-ode'.  The stochastic system has four rows:

    (i)   f_t*tau + tau_t*f + f_x*phi + (1/2)*f_xx*phitilde^2
            - phi_t - phi_x*f - (1/2)*phi_xx*g^2
    (ii)  f_x*phitilde - phitilde_t - phitilde_x*f - (1/2)*phitilde_xx*g^2
    (iii) g_t*tau + (1/2)*tau_t*g + g_x*phi + (1/2)*g_xx*phitilde^2 - phi_x*g
    (iv)  g_x*phitilde - phitilde_x*g

    'classical' keeps (i) and (iii) and requires phitilde == 0; 'det-ode'
    keeps (i) and (ii) and requires g == 0.  tau must depend on t only.
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
    return DeterminingSystem(tuple(simplify(r) for r in rows))


# residual indices of the subsystem involving only phitilde, per mode
PHITILDE_ROWS = {"classical": (), "stochastic": (1, 3), "det-ode": (1,)}
