"""Expected outputs, written by hand from the mathematics of each input.

Nothing here was captured from sdesym.  Every entry follows from the
determining equations of a scalar Ito SDE dX = f dt + g dW with
v = tau(t) d/dt + phi(t, x) d/dx, as listed in the README:

    (a) phi_t + f phi_x + g^2 phi_xx / 2 - tau f_t - tau_t f - phi f_x = 0
    (b) g phi_x - g tau_t / 2 - tau g_t - phi g_x = 0

and from the printing rules in the README: coefficient vectors in reduced
echelon form, scaled to the smallest integer pattern, first coefficient
positive.

* Brownian motion (f = 0, g = 1): (b) gives phi_x = tau_t / 2, (a) gives
  phi_t = 0, so tau = c1 + c2 t and phi = c2 x / 2 + c3: d/dt,
  2t d/dt + x d/dx and d/dx.  The stochastic part phitilde = const adds
  [d/dx]^S.  Larger polynomial dictionaries find nothing more.
* Langevin (f = a x, g = b): exp(2at) d/dt + a x exp(2at) d/dx and
  exp(at) d/dx besides d/dt; phitilde = exp(at) is the stochastic one.  The
  second generator's coefficient pair (1, a) prints scaled to the smallest
  integers: (2, 1) for a = 1/2, (1, a) for integer a.  The affine equation
  f = alpha x behaves the same with alpha in place of a.
* Inverse drift (f = a / x, g = 1): d/dt and the scaling 2t d/dt + x d/dx;
  any phitilde would need f_xx phitilde^2 = 0, so there is no stochastic
  generator.
* Commutators of d/dt, exp(2at) d/dt + x exp(2at) d/dx, exp(at) d/dx at
  a = 1: [X1, X2] = 2 X2, [X1, X3] = X3, [X2, X3] = 0.
* Maps: Y = X exp(-alpha t) turns dX = alpha X dt + dW into
  dY = exp(-alpha t) dW, and s = -exp(-2 alpha t) / (2 alpha c) makes it
  dY = dW(s), where c is the integer scale of the printed second generator
  (c = 2 at alpha = 1/2, else 1).  At alpha = 1 this is the README's
  find-map output.
* Matching: the 3-dimensional algebras above are all isomorphic (a 2-D
  abelian ideal on which one element acts with eigenvalue ratio 2 : 1).
  The 2-D algebra {d/dt, 2t d/dt + x d/dx} is non-abelian, so it matches
  itself but not the abelian {d/dt, d/dx}.
"""

D_T = "[d/dt]^D"
SCALING = "[2*t d/dt + x d/dx]^D"
D_X = "[d/dx]^D"
D_X_S = "[d/dx]^S"

BROWNIAN_CLASSICAL = (D_T, SCALING, D_X)
BROWNIAN_STOCHASTIC = BROWNIAN_CLASSICAL + (D_X_S,)
AXINV = (D_T, SCALING)


def _ou(p: str, value: float) -> tuple:
    """Classical generators of dX = p X dt + ... at p = value."""
    if value == 0.5:
        second = f"[2*exp(2*{p}*t) d/dt + x*exp(2*{p}*t) d/dx]^D"
    elif value == 1:
        second = f"[exp(2*{p}*t) d/dt + x*exp(2*{p}*t) d/dx]^D"
    else:
        second = f"[exp(2*{p}*t) d/dt + {value:g}*x*exp(2*{p}*t) d/dx]^D"
    return (D_T, second, f"[exp({p}*t) d/dx]^D")


def langevin(a: float, mode: str) -> tuple:
    gens = _ou("a", a)
    return gens + ("[exp(a*t) d/dx]^S",) if mode == "stochastic" else gens


def affine(alpha: float) -> tuple:
    return _ou("alpha", alpha)


# shipped problem file -> mode -> printed generators
SHIPPED = {
    "axinv.prob": {"classical": AXINV, "stochastic": AXINV},
    "brownian.prob": {"classical": BROWNIAN_CLASSICAL,
                      "stochastic": BROWNIAN_STOCHASTIC},
    "langevin-affine.prob": {"classical": affine(1), "stochastic": affine(1)},
    "langevin.prob": {"classical": langevin(1, "classical"),
                      "stochastic": langevin(1, "stochastic")},
}

# (i, j) -> {k: c} with [Xi, Xj] = sum of c Xk
AFFINE_BRACKETS = {(1, 2): {2: 2.0}, (1, 3): {3: 1.0}, (2, 3): {}}

MU2 = "x*exp(-(alpha*t))"


def affine_map(alpha: float) -> tuple:
    """(mu1, mu2) as find-map prints them for the affine source."""
    denom = {0.5: 2, 1: 2, 2: 4}[alpha]
    return f"-1/{denom}*exp(-2*alpha*t)", MU2


# the map and generator files handed to verify-map / verify-symmetry
AFFINE_MAP_FILE = "mu1 = -1/2*exp(-2*alpha*t)\nmu2 = x*exp(-alpha*t)\n"
X4_GENERATOR_FILE = "tau = 0\nphi = 0\nphitilde = 1\n"
