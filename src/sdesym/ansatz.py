"""Ansatz-based solver: determining systems -> finite linear problems.

A dictionary of basis functions per generator slot turns the determining
PDEs into a linear system by evaluation at quasi-random sample points; the
nullspace of that system yields a basis of symmetry generators.  The
quadratic phitilde^2 coupling is handled by a two-stage solve: the rows
linear in phitilde alone are solved first, then each direction is carried
through the remaining rows with its squared scale as an extra affine
unknown q = s^2.  A nullspace vector with q < 0 is negated as a whole,
which makes q > 0, and the direction is scaled by sqrt(q); one with
|q| <= 1e-10 keeps no phitilde.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .determining import (
    PHITILDE_ROWS,
    DeterminingSystem,
    Sde,
    VectorField,
    _derivatives,
    _ito_terms,
    build_system,
)
from .expr import (
    Expr,
    EvalError,
    ZERO,
    add,
    const,
    evaluate_points,
    finite_points,
    mul,
    param,
    parameters_of,
    simplify,
    small_rational,
    variables_of,
)

DEFAULT_WINDOW = (0.1, 2.0, 0.5, 2.0)  # t0, t1, x0, x1
DEFAULT_RANK_TOL = 1e-9
VERIFY_TOL = 1e-8  # max |residual| at sampled points; a value <= it passes
COEFF_PREFIX = "_c"


class AnsatzError(ValueError):
    pass


class NonAffineError(AnsatzError):
    """A residual is not affine in the unknown coefficients."""


@dataclass(frozen=True)
class Ansatz:
    """Basis-function dictionaries for the generator slots.

    Each entry is an Expr in (t, x); tau entries may depend on t only.
    One fresh coefficient symbol is attached per entry when solving.
    """

    tau: tuple = ()
    phi: tuple = ()
    phitilde: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tau", tuple(self.tau))
        object.__setattr__(self, "phi", tuple(self.phi))
        object.__setattr__(self, "phitilde", tuple(self.phitilde))
        for e in self.tau:
            if "x" in variables_of(e):
                raise AnsatzError(f"tau dictionary entry '{e}' depends on x")
        for slot in (self.tau, self.phi, self.phitilde):
            for e in slot:
                extra = variables_of(e) - {"t", "x"}
                if extra:
                    raise AnsatzError(
                        f"ansatz entry '{e}' uses undeclared variables {sorted(extra)}")

    def n_unknowns(self) -> int:
        return len(self.tau) + len(self.phi) + len(self.phitilde)


@dataclass(frozen=True)
class SymmetryBasis:
    """Linearly independent generators returned by the solver."""

    generators: tuple
    mode: str
    residual_norms: tuple
    stage1_dimension: int = 0

    @property
    def stage1_restricted(self) -> bool:
        """dim >= 2 stage-1 space: directions were processed one at a time."""
        return self.stage1_dimension >= 2

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


# ---------------------------------------------------------------------------
# sample points

def _halton_blocks(seed: int, size: int):
    """Successive blocks of `size` scrambled Halton points in [0, 1)^2.

    Bases 2 and 3, each digit scrambled by its own random permutation (Owen
    2017, arXiv:1706.02808), drawn from `default_rng(seed)`.  The draw order
    and the rounding of each radical inverse reproduce the reference sampler
    the tests compare against, bit for bit.
    """
    rng = np.random.default_rng(seed)
    bases = []
    for base in (2, 3):
        # one permutation per digit whose weight base^-(j+1) exceeds 2^-54
        count = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        # base^-(j+1) by repeated division, which rounds as the reference does
        weights = np.divide.accumulate(
            np.r_[1.0 / base, np.full(count - 1, float(base))])
        bases.append((base, perms, weights))
    for start in itertools.count(0, size):
        k = np.arange(start, start + size, dtype=np.int64)
        cols = []
        for base, perms, weights in bases:
            # term j is perms[j, digit j of k] * weight j; the digits above
            # those of the largest k are 0 at every point
            terms = np.repeat(perms[:, :1] * weights[:, None], size, axis=1)
            j = np.arange(len(np.base_repr(start + size - 1, base)))[:, None]
            terms[:len(j)] = perms[j, k // base**j % base] * weights[j]
            # a sequential sum over j (cumsum) keeps the reference's
            # rounding; np.sum may add pairwise
            cols.append(np.cumsum(terms, axis=0)[-1])
        yield np.column_stack(cols)


def sample_points(n: int, window=DEFAULT_WINDOW, seed: int = 0,
                  reject=(), params=None) -> list:
    """Quasi-random (Halton) points in the window, rejecting singular loci.

    A point is rejected when any expression in `reject` evaluates
    non-finite there (a domain error included); at most 50 blocks are drawn.
    """
    if n < 1:
        raise AnsatzError(f"need at least 1 sample point, got {n}")
    t0, t1, x0, x1 = window
    points = []
    for block in itertools.islice(_halton_blocks(seed, max(n, 8)), 50):
        block = np.column_stack([t0 + (t1 - t0) * block[:, 0],
                                 x0 + (x1 - x0) * block[:, 1]])
        ok = np.all(np.isfinite(evaluate_points(reject, block, params)), axis=1)
        points.extend(map(tuple, block[ok].tolist()))
        if len(points) >= n:
            return points[:n]
    raise AnsatzError(
        f"could not sample {n} admissible points in window {window}")


def _singularity_guards(sde: Sde) -> list:
    f, g = sde.drift, sde.diffusion
    return [f, g, *_derivatives(f), *_derivatives(g)]


# ---------------------------------------------------------------------------
# linear algebra

def build_linear_system(ds: DeterminingSystem, points, params):
    """Evaluate residuals at sample points; return (M, b) with rows
    M @ c + b = residual values stacked over (point, residual).

    Each residual is compiled once with the unknowns as extra arguments and
    evaluated at every point with the unknowns set to 0 (giving b), to each
    unit vector e_j (giving column j of M) and to a random probe (checking
    that the residual is affine).  Entries within 1e-12 of the sum of
    |top-level terms|, the magnitude that cancels, are snapped to zero.
    The probe's value may miss b + M @ probe by 1e-6 of the largest of 1,
    |b|, max |M| and that magnitude at the probe; beyond it NonAffineError
    is raised, as the residual is not affine in the unknowns.  Raises
    AnsatzError when a point hits an evaluation domain error.
    """
    names = tuple(ds.unknowns)
    n = len(names)
    rows = len(points) * len(ds.residuals)
    if n and rows < 3 * n:
        raise AnsatzError(
            f"need at least {3*n} rows for {n} unknowns, got {rows}; add sample points")
    probe = np.random.default_rng(7).uniform(-1.0, 1.0, size=n)
    settings = np.vstack([np.zeros(n), np.eye(n), probe])
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    grid = np.hstack([np.repeat(pts, n + 2, axis=0),
                      np.tile(settings, (len(pts), 1))])
    terms = [res.children if res.kind == "sum" else (res,) for res in ds.residuals]
    try:
        V = finite_points([c for ts in terms for c in ts], grid, params, names)
    except EvalError as err:
        raise AnsatzError(str(err)) from None
    V = V.reshape(len(pts), n + 2, -1)
    starts = np.cumsum([0, *map(len, terms)])[:-1]
    value = np.add.reduceat(V, starts, axis=-1)
    size = np.add.reduceat(np.abs(V), starts, axis=-1)
    tiny = 1e-12 * np.maximum(1.0, size)
    base = np.where(np.abs(value[:, 0]) <= tiny[:, 0], 0.0, value[:, 0])
    cols = value[:, 1: n + 1] - base[:, None]
    cols = np.where(np.abs(cols) <= tiny[:, 1: n + 1], 0.0, cols)
    M = cols.transpose(0, 2, 1).reshape(rows, n)
    b = base.reshape(rows)
    defect = np.abs(value[:, -1].reshape(rows) - (b + M @ probe))
    bound = 1e-6 * np.max([np.abs(b), np.max(np.abs(M), axis=1, initial=0.0),
                           size[:, -1].reshape(rows)], axis=0, initial=1.0)
    if n and np.any(defect > bound):
        raise NonAffineError(
            "non-affine residual detected: a quadratic coefficient term survives")
    return M, b


def _scales(A: np.ndarray, axis: int) -> np.ndarray:
    """The largest magnitude along `axis`, 1 where it is 0."""
    m = np.max(np.abs(A), axis=axis)
    return np.where(m > 0.0, m, 1.0)


def nullspace(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> list:
    """Unit-vector basis of the right nullspace via SVD rank revelation.

    M is equilibrated first, so that rows and dictionary entries of very
    different sizes do not decide the rank cut: each row, then each column,
    is divided by its largest magnitude.  That leaves every row and column
    at largest magnitude 1, so a further sweep (Ruiz scaling) would change
    nothing.  Each null vector is mapped back through the column scales."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[1] == 0:
        return []
    if M.shape[0] == 0:
        return [np.eye(M.shape[1])[i] for i in range(M.shape[1])]
    M = M / _scales(M, 1)[:, None]
    col_scale = _scales(M, 0)
    M = M / col_scale
    _, s, vh = np.linalg.svd(M)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > tol * s[0]))
    null = vh[rank:] / col_scale
    return list(null / np.linalg.norm(null, axis=1)[:, None])


def _rref(vectors) -> list:
    """Reduced row echelon form of the span; canonical, pivot-normalized."""
    if not vectors:
        return []
    A = np.array(vectors, dtype=float)
    rows, cols = A.shape
    piv_row = 0
    for c in range(cols):
        if piv_row >= rows:
            break
        k = piv_row + int(np.argmax(np.abs(A[piv_row:, c])))
        if abs(A[k, c]) < 1e-12:
            continue
        A[[piv_row, k]] = A[[k, piv_row]]
        A[piv_row] /= A[piv_row, c]
        for rr in range(rows):
            if rr != piv_row:
                A[rr] -= A[rr, c] * A[piv_row]
        piv_row += 1
    A = A[:piv_row]
    A[np.abs(A) < 1e-9] = 0.0
    return [A[i] for i in range(piv_row)]


def _nice_scale(vec: np.ndarray) -> np.ndarray:
    """Rescale so entries become small integers if a scaling by 1..48 allows.

    `vec` is an `_rref` row, whose first nonzero entry is 1; the rescaled
    row keeps it first and positive."""
    for m in range(1, 49):
        w = vec * m
        r = np.round(w)
        if np.all(np.abs(w - r) <= 1e-7 * max(1.0, float(np.max(np.abs(w))))):
            ints = r.astype(int)
            return (ints // math.gcd(*map(int, ints))).astype(float)
    return vec


def _coeff_const(v: float) -> Expr:
    # rationalize only when exact to a few ulps (0.5, 2, 1/3, ...); genuinely
    # irrational scales like sqrt(2) must stay floats or residuals degrade
    frac = small_rational(v, 1 << 16, 4e-16)
    return const(v if frac is None else frac)


def _snap_small_rationals(values: np.ndarray, max_den: int, rel_tol: float,
                          holds) -> np.ndarray:
    """`values` with each entry moved to its small_rational(max_den,
    rel_tol), if an entry moves and `holds` accepts the moved array;
    otherwise `values` itself."""
    snapped = values.copy()
    for idx, v in np.ndenumerate(values):
        frac = small_rational(float(v), max_den, rel_tol)
        if frac is not None and float(frac) != v:
            snapped[idx] = float(frac)
    if np.array_equal(snapped, values) or not holds(snapped):
        return values
    return snapped


def _vec_to_expr(vec, basis_fns) -> Expr:
    terms = []
    for coeff, fn in zip(vec, basis_fns):
        if abs(coeff) <= 1e-9:
            continue
        terms.append(simplify(mul(_coeff_const(float(coeff)), fn)))
    return simplify(add(*terms)) if terms else ZERO


# ---------------------------------------------------------------------------
# solver

def _fresh_names(n: int, taken) -> list:
    names = []
    i = 0
    while len(names) < n:
        nm = f"{COEFF_PREFIX}{i}"
        if nm not in taken:
            names.append(nm)
        i += 1
    return names


def _linear_combo(names, basis_fns) -> Expr:
    if not names:
        return ZERO
    return add(*[mul(param(nm), fn) for nm, fn in zip(names, basis_fns)])


def _max_abs(values, axis=None):
    """Largest magnitude, infinite where any value is non-finite, so that
    a failed evaluation can never pass a `<= tol` gate."""
    mags = np.where(np.isfinite(values), np.abs(values), np.inf)
    return np.max(mags, axis=axis, initial=0.0)


def _check_dictionary_independence(fns, points, params, label):
    if len(fns) < 2:
        return
    A = finite_points(fns, points, params)
    s = np.linalg.svd(A / _scales(A, 0), compute_uv=False)
    if s[0] == 0 or s[-1] < 1e-9 * s[0]:
        raise AnsatzError(f"{label} dictionary entries are numerically linearly dependent")


def _field_features(v: VectorField, points, params) -> np.ndarray:
    return finite_points((v.tau, v.phi, v.phitilde), points, params).reshape(-1)


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    passed: bool
    tol: float
    n_points: int
    per_residual: tuple  # max |residual_i| over the point set

    def to_kv(self) -> str:
        lines = [f"residual.max_abs = {self.max_abs:.6e}",
                 f"residual.tol = {self.tol:.1e}",
                 f"residual.n_points = {self.n_points}",
                 f"residual.pass = {str(self.passed).lower()}"]
        for i, m in enumerate(self.per_residual, start=1):
            lines.append(f"residual.{i}.max_abs = {m:.6e}")
        return "\n".join(lines)


def max_residual(residuals, points, params) -> ResidualReport:
    """The one residual gate: evaluate the residuals at the points and pass
    iff the largest magnitude is <= VERIFY_TOL (a non-finite value counts
    as inf, so it never passes)."""
    per = _max_abs(evaluate_points(residuals, points, params), axis=0)
    worst = float(_max_abs(per))
    return ResidualReport(worst, worst <= VERIFY_TOL, VERIFY_TOL, len(points),
                          tuple(float(m) for m in per))


def _is_numerically_zero(e: Expr, points, params) -> bool:
    e = simplify(e)
    return e.is_zero() or _max_abs(evaluate_points([e], points, params)) <= 1e-12


def solve_symmetries(sde: Sde, a: Ansatz, mode: str = "stochastic", *,
                     n_points: int = 64, window=DEFAULT_WINDOW, seed: int = 2026,
                     tol: float = DEFAULT_RANK_TOL) -> SymmetryBasis:
    """Two-stage ansatz solve returning a verified symmetry basis.

    Stage 1 solves the residual rows linear in phitilde alone; stage 2
    substitutes each stage-1 direction (and phitilde = 0) and solves the
    remaining rows for (tau, phi), carrying q = scale^2 as an extra affine
    unknown whenever the quadratic coupling does not vanish.  Every returned
    generator is re-verified against the full system on a fresh point set
    through the one residual gate, `max_residual`.

    ``tol`` is the relative SVD rank cut: singular values ``s > tol*s[0]``
    count towards the rank.  ``VERIFY_TOL`` is an absolute bound on the
    max |residual| of a generator over the fresh points; a generator passes
    when its residual is <= the bound.  A candidate over the bound is not
    dropped: the whole solve raises ``AnsatzError("verification failure
    ...")``.  Generators with exact rational coefficients can have a
    residual of exactly 0.0.
    """
    if mode not in ("classical", "stochastic", "det-ode"):
        raise AnsatzError(f"unknown mode {mode!r}")
    if mode == "det-ode" and not sde.is_deterministic():
        raise AnsatzError("det-ode mode requires diffusion == 0")
    if mode == "stochastic" and sde.is_deterministic():
        mode = "det-ode"
    if mode == "classical" and a.phitilde:
        raise AnsatzError("classical mode does not accept a phitilde dictionary")

    params = sde.bound_params()
    needed = set()
    for e in (sde.drift, sde.diffusion, *a.tau, *a.phi, *a.phitilde):
        needed |= parameters_of(e)
    missing = sorted(needed - set(params))
    if missing:
        raise AnsatzError(
            f"parameters {missing} require numeric values before solving")

    guards = _singularity_guards(sde)
    points = sample_points(n_points, window, seed, reject=guards, params=params)
    fresh = sample_points(max(32, n_points // 2), window, seed + 1,
                          reject=guards, params=params)

    for label, fns in (("tau", a.tau), ("phi", a.phi), ("phitilde", a.phitilde)):
        _check_dictionary_independence(fns, points, params, label)

    taken = set(params) | needed
    pt_names = _fresh_names(len(a.phitilde), taken)
    det_names = _fresh_names(len(a.tau) + len(a.phi), taken | set(pt_names))
    q_name = _fresh_names(1, taken | set(det_names) | set(pt_names))[0]
    n_tau, n_det = len(a.tau), len(det_names)

    def null_vectors(rows, names, stage):
        """Canonical, integer-scaled nullspace basis of the rows' system."""
        ds = DeterminingSystem(tuple(rows), unknowns=tuple(names))
        M, b = build_linear_system(ds, points, params)
        if float(np.max(np.abs(b), initial=0.0)) > 1e-12:
            raise AnsatzError(f"{stage} system is not homogeneous")
        return [_nice_scale(vec) for vec in _rref(nullspace(M, tol))]

    def field(vec, phitilde=ZERO):
        return VectorField(_vec_to_expr(vec[:n_tau], a.tau),
                           _vec_to_expr(vec[n_tau:n_det], a.phi), phitilde)

    # ---- stage 1: rows linear in phitilde alone
    stage1_dirs = []
    if a.phitilde and PHITILDE_ROWS[mode]:
        pt_field = VectorField(ZERO, ZERO, _linear_combo(pt_names, a.phitilde))
        full = build_system(sde, pt_field, mode).residuals
        stage1_dirs = [_vec_to_expr(vec, a.phitilde) for vec in null_vectors(
            [full[i] for i in PHITILDE_ROWS[mode]], pt_names, "stage-1")]

    # ---- stage 2: the phitilde = 0 run, then each stage-1 direction
    det = VectorField(_linear_combo(det_names[:n_tau], a.tau),
                      _linear_combo(det_names[n_tau:], a.phi), ZERO)
    stage2 = build_system(sde, det, mode).residuals
    candidates = []
    if det_names:
        candidates = [field(vec) for vec in null_vectors(stage2, det_names, "stage-2")]
    # phitilde enters the other rows, (i) and (iii) or an ODE's (i), only
    # through the Ito terms (1/2)*f_xx*phitilde^2 and (1/2)*g_xx*phitilde^2
    square_rows = [r for i, r in enumerate(stage2) if i not in PHITILDE_ROWS[mode]]
    tables = [_derivatives(c) for c in (sde.drift, sde.diffusion)[:len(square_rows)]]
    for direction in stage1_dirs:
        qs = [simplify(_ito_terms(dc, ZERO, ZERO, direction)[2]) for dc in tables]
        if all(_is_numerically_zero(q, points, params) for q in qs):
            # the square vanishes here: the direction decouples completely
            candidates.append(VectorField(ZERO, ZERO, direction))
            continue
        # q-device: those rows at phitilde = 0 plus q = scale^2 times their
        # phitilde^2 terms are affine in (tau, phi coefficients, q)
        rows = [add(r, mul(param(q_name), q)) for r, q in zip(square_rows, qs)]
        for vec in null_vectors(rows, (*det_names, q_name), "stage-2"):
            q = vec[-1]
            if abs(q) <= 1e-10:
                candidates.append(field(vec))
            else:  # q > 0 after a sign flip of the whole vector
                candidates.append(field(np.sign(q) * vec, simplify(mul(
                    _coeff_const(math.sqrt(abs(q))), direction))))

    # ---- re-verify on fresh points and keep an independent subset
    generators = []
    norms = []
    feats = []
    for v in candidates:
        rep = max_residual(build_system(sde, v, mode).residuals, fresh, params)
        if not rep.passed:
            raise AnsatzError(
                f"verification failure: generator {v} has residual {rep.max_abs:.3e} > "
                f"{rep.tol:.1e} at fresh points (rank tolerance misconfigured?)")
        feat = _field_features(v, fresh, params)
        norm = float(np.linalg.norm(feat))
        if norm == 0.0:
            continue
        if feats:
            F = np.column_stack(feats)
            proj, *_ = np.linalg.lstsq(F, feat, rcond=None)
            if float(np.linalg.norm(F @ proj - feat)) <= 1e-8 * norm:
                continue  # dependent on earlier generators
        feats.append(feat)
        generators.append(v)
        norms.append(rep.max_abs)

    return SymmetryBasis(tuple(generators), mode, tuple(norms),
                         stage1_dimension=len(stage1_dirs))
