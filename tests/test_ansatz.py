"""Ansatz solver: linearization, nullspaces, two-stage solve, oracle."""

import math
import os
import re

import numpy as np
import pytest

from sdesym.ansatz import (
    Ansatz,
    AnsatzError,
    _fresh_names,
    _linear_combo,
    _singularity_guards,
    _snap_small_rationals,
    build_linear_system,
    max_residual,
    nullspace,
    sample_points,
    solve_symmetries,
)
from sdesym.determining import (
    PHITILDE_ROWS,
    DeterminingSystem,
    Sde,
    VectorField,
    build_system,
)
from sdesym.expr import ZERO, parse, simplify
from sdesym.problem import load_problem

from conftest import collection_nullspace_dim, evaluate, express_in_basis

P = ("a", "b")


def p(s):
    return parse(s, parameters=P)


BROWNIAN = Sde(p("0"), p("1"))
LANGEVIN = Sde(p("a*x"), p("b"), {"a": 1.0, "b": 1.0})
AXINV = Sde(p("a/x"), p("1"), {"a": 1.0})

TAU1T = (p("1"), p("t"))
PHI1X = (p("1"), p("x"))
PROBLEMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "problems")


def scalar_linear_system(ds, points, params):
    """Point-by-point reference for build_linear_system with the scalar
    evaluator: returns (M, b, scale), scale being the sum of |top-level
    terms| behind each entry of [b | M], which sets its zero-snap threshold."""
    n = len(ds.unknowns)
    M, b, scale = [], [], []
    for t, x in points:
        for res in ds.residuals:
            terms = res.children if res.kind == "sum" else (res,)
            row, row_scale = [], []
            for c in [np.zeros(n), *np.eye(n)]:
                env = {**params, "t": t, "x": x, **dict(zip(ds.unknowns, c))}
                row.append(evaluate(res, env))
                row_scale.append(sum(abs(evaluate(term, env)) for term in terms))
            tiny = 1e-12 * np.maximum(1.0, row_scale)
            base = 0.0 if abs(row[0]) <= tiny[0] else row[0]
            entries = [v - base for v in row[1:]]
            M.append([0.0 if abs(v) <= tol else v for v, tol in zip(entries, tiny[1:])])
            b.append(base)
            scale.append(row_scale)
    return np.array(M).reshape(-1, n), np.array(b), np.array(scale).reshape(-1, n + 1)


def shipped_systems():
    """Stage-1 and stage-2 systems of every shipped problem, as the
    stochastic solve builds them, with its sample points."""
    out = []
    for name in sorted(os.listdir(PROBLEMS)):
        pf = load_problem(os.path.join(PROBLEMS, name))
        sde, a = pf.require_sde(), pf.ansatz
        mode = "det-ode" if sde.is_deterministic() else "stochastic"
        params = sde.bound_params()
        points = sample_points(64, pf.window(), pf.seed(),
                               reject=_singularity_guards(sde), params=params)
        names = _fresh_names(a.n_unknowns(), set(params))
        tau = _linear_combo(names[:len(a.tau)], a.tau)
        phi = _linear_combo(names[len(a.tau):len(a.tau) + len(a.phi)], a.phi)
        pt_names = names[len(a.tau) + len(a.phi):]
        if a.phitilde:
            full = build_system(sde, VectorField(ZERO, ZERO,
                                                 _linear_combo(pt_names, a.phitilde)), mode)
            out.append((DeterminingSystem(
                tuple(full.residuals[i] for i in PHITILDE_ROWS[mode]),
                unknowns=tuple(pt_names)), points, params))
        out.append((DeterminingSystem(
            build_system(sde, VectorField(tau, phi, ZERO), mode).residuals,
            unknowns=tuple(names[:len(a.tau) + len(a.phi)])), points, params))
    return out


class TestSamplePoints:
    def test_window_and_count(self):
        pts = sample_points(64, (0.1, 2.0, 0.5, 2.0), seed=0)
        assert len(pts) == 64
        assert all(0.1 <= t <= 2.0 and 0.5 <= x <= 2.0 for t, x in pts)

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_count_below_one_refused(self, n):
        # -1 once sliced 7 points from the end of a block, 0 ended in an
        # IndexError inside the solver
        with pytest.raises(AnsatzError, match=f"at least 1 sample point, got {n}"):
            sample_points(n, seed=4)

    def test_deterministic(self):
        assert sample_points(16, seed=4) == sample_points(16, seed=4)
        assert sample_points(16, seed=4) != sample_points(16, seed=5)

    def test_rejection_of_singular_loci(self):
        pole = parse("1/(x - 1)")
        pts = sample_points(40, (0.1, 2.0, 0.999999, 1.000001), seed=0,
                            reject=[pole])
        assert all(abs(x - 1.0) > 0 for _, x in pts)

    def test_halton_bit_identical_to_scipy(self):
        # oracle: scipy's scrambled Halton sampler, which the in-house
        # sequence reproduces; on the unit window the points pass unscaled
        from scipy.stats import qmc

        half = parse("log(x - 1/2)")    # rejects x <= 1/2, about half a block
        for seed in range(60):
            for n in (3, 8, 40, 64):
                ref = qmc.Halton(d=2, scramble=True, seed=seed)
                want = ref.random(max(n, 8))[:n]
                got = sample_points(n, (0.0, 1.0, 0.0, 1.0), seed=seed)
                assert np.array_equal(np.array(got), want)

                ref = qmc.Halton(d=2, scramble=True, seed=seed)
                want = np.empty((0, 2))
                while len(want) < n:    # successive draws after rejection
                    block = ref.random(max(n, 8))
                    want = np.vstack([want, block[block[:, 1] > 0.5]])
                got = sample_points(n, (0.0, 1.0, 0.0, 1.0), seed=seed,
                                    reject=[half])
                assert np.array_equal(np.array(got), want[:n])


class TestSnapSmallRationals:
    """The rounding step of the basis match and of the map solve."""

    def test_moved_entries_kept_when_they_hold(self):
        values = np.array([[0.5 + 1e-12, 2.0], [1 / 3 + 1e-13, -0.0]])
        seen = []
        got = _snap_small_rationals(values, 64, 1e-6,
                                    lambda a: seen.append(a) or True)
        assert got is seen[0] and got is not values
        assert got.tolist() == [[0.5, 2.0], [1 / 3, 0.0]]
        assert math.copysign(1.0, got[1, 1]) == -1.0   # -0.0 stays put
        assert values[0, 0] == 0.5 + 1e-12             # the input is not moved

    def test_refused_move_returns_the_input(self):
        values = np.array([0.25 + 1e-11, 1.5])
        seen = []
        got = _snap_small_rationals(values, 4096, 1e-9,
                                    lambda c: seen.append(c.copy()) and False)
        assert got is values
        assert [c.tolist() for c in seen] == [[0.25, 1.5]]

    def test_nothing_moves_returns_the_input(self):
        # 2**-0.5 has no fraction within rel_tol, 0.75 is one already
        values = np.array([2 ** -0.5, 0.75, 0.0])
        got = _snap_small_rationals(
            values, 64, 1e-6, lambda a: pytest.fail("nothing moved, yet asked"))
        assert got is values


class TestNullspace:
    def test_rank_one_row(self):
        basis = nullspace(np.array([[1.0, 0.0, 0.0]]))
        assert len(basis) == 2
        for v in basis:
            assert abs(v[0]) < 1e-12

    def test_zero_matrix(self):
        assert len(nullspace(np.zeros((3, 3)))) == 3

    def test_known_rank_factors(self, rng):
        # random 40x6 built from rank-4 factors
        R = rng.normal(size=(40, 4)) @ rng.normal(size=(4, 6))
        basis = nullspace(R)
        assert len(basis) == 2
        for v in basis:
            assert float(np.max(np.abs(R @ v))) < 1e-10

    def test_rank_free_of_row_and_column_scales(self, rng):
        # the same factors with rows and columns scaled over 24 orders of
        # magnitude: S v = 0 iff R (c v) = 0
        R = rng.normal(size=(40, 4)) @ rng.normal(size=(4, 6))
        r, c = np.logspace(-12, 12, 40), np.logspace(12, -12, 6)
        basis = nullspace(r[:, None] * R * c)
        assert len(basis) == 2
        for v in basis:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            w = c * v / np.linalg.norm(c * v)
            assert float(np.max(np.abs(R @ w))) < 1e-10

    def test_empty(self):
        assert nullspace(np.zeros((3, 0))) == []


class TestBuildLinearSystem:
    def _system(self, sde, tau_fns, phi_fns, mode="classical"):
        names = [f"_c{i}" for i in range(len(tau_fns) + len(phi_fns))]
        v = VectorField(_linear_combo(names[:len(tau_fns)], tau_fns),
                        _linear_combo(names[len(tau_fns):], phi_fns), ZERO)
        return DeterminingSystem(build_system(sde, v, mode).residuals,
                                 unknowns=tuple(names))

    def test_brownian_nullspace_dimension(self):
        ds = self._system(BROWNIAN, TAU1T, PHI1X)
        pts = sample_points(16, seed=1)
        M, b = build_linear_system(ds, pts, {})
        assert M.shape == (32, 4)
        assert np.all(b == 0)
        assert len(nullspace(M)) == 3

    def test_zero_unknowns(self):
        ds = DeterminingSystem((p("0"),), unknowns=())
        M, b = build_linear_system(ds, sample_points(8, seed=2), {})
        assert M.shape[1] == 0 and nullspace(M) == []

    def test_oversampling_guard(self):
        ds = self._system(BROWNIAN, TAU1T, PHI1X)
        with pytest.raises(AnsatzError, match="rows"):
            build_linear_system(ds, sample_points(4, seed=0)[:2], {})

    def test_non_affine_detected(self):
        ds = DeterminingSystem((parse("_c0^2 + x", parameters=("_c0",)),),
                               unknowns=("_c0",))
        with pytest.raises(AnsatzError, match="non-affine"):
            build_linear_system(ds, sample_points(8, seed=3), {})

    @pytest.mark.parametrize("margin, refused", [(1.001, True), (0.999, False)])
    def test_affine_gate_is_relative_to_the_cancelling_magnitude(self, margin,
                                                                 refused):
        # Two terms of 1e6 |c0 c1| cancel exactly at the probe, and b and M
        # are 0, so the defect q |c0 c1| is refused iff it exceeds
        # 1e-6 (2e6 + q) |c0 c1|, that is iff q > 2 / (1 - 1e-6).
        q = margin * 2 / (1 - 1e-6)
        res = parse(f"1e6*_c0*_c1 - 1e6*_c0*_c1 + {q!r}*_c0*_c1",
                    parameters=("_c0", "_c1"))
        assert len(res.children) == 3
        ds = DeterminingSystem((res,), unknowns=("_c0", "_c1"))
        points = [(0.1 * k, 1.0) for k in range(1, 7)]
        if refused:
            with pytest.raises(AnsatzError, match="non-affine"):
                build_linear_system(ds, points, {})
        else:
            M, b = build_linear_system(ds, points, {})
            assert np.all(M == 0.0) and np.all(b == 0.0)

    def test_matches_scalar_reference_on_shipped_systems(self):
        systems = shipped_systems()
        assert len(systems) == 7  # stage 2 of all four problems, stage 1 of three
        for ds, points, params in systems:
            M, b = build_linear_system(ds, points, params)
            M_ref, b_ref, scale = scalar_linear_system(ds, points, params)
            # numpy's exp/log may round differently from math's in the last
            # place, so entries agree to the snap threshold; zeros exactly
            bM, bM_ref = np.column_stack([b, M]), np.column_stack([b_ref, M_ref])
            assert np.array_equal(bM == 0.0, bM_ref == 0.0)
            assert np.all(np.abs(bM - bM_ref) <= 1e-12 * np.maximum(1.0, scale))

    def test_cancellation_snaps_to_exact_zero(self):
        # (x + t)^2 - x^2 - 2*x*t - t^2 is a few ulps off zero at most points
        res = parse("_c0*(x + t)^2 - _c0*x^2 - 2*_c0*x*t - _c0*t^2 + _c1*t",
                    parameters=("_c0", "_c1"))
        ds = DeterminingSystem((res,), unknowns=("_c0", "_c1"))
        points = sample_points(8, seed=3)
        assert any(evaluate(res, {"t": t, "x": x, "_c0": 1.0, "_c1": 0.0}) != 0.0
                   for t, x in points)
        M, b = build_linear_system(ds, points, {})
        M_ref, b_ref, _ = scalar_linear_system(ds, points, {})
        assert np.all(M[:, 0] == 0.0) and np.all(M_ref[:, 0] == 0.0)
        assert np.array_equal(M[:, 1], [t for t, _ in points])
        assert np.all(b == 0.0)

    def test_domain_error_names_the_point(self):
        res = parse("_c0*log(x - 1) + t", parameters=("_c0",))
        ds = DeterminingSystem((res,), unknowns=("_c0",))
        points = sample_points(8, seed=3)
        t, x = next((t, x) for t, x in points if x <= 1.0)
        with pytest.raises(AnsatzError) as err:
            build_linear_system(ds, points, {})
        assert str(err.value) == (
            f"evaluation failed at point (t={t}, x={x}): log of a non-positive "
            f"value in subexpression 'log(x - 1)'")

    def test_non_finite_residual_fails_the_gate(self):
        # the residuals are below 1e-11 for x > 1 and nan for x < 1
        v = VectorField(p("2*t"), p("x + 1e-12*(x - 1)^(5/2)"))
        points = sample_points(16, seed=3)
        assert any(x < 1.0 for _, x in points)
        residuals = build_system(BROWNIAN, v, "classical").residuals
        assert max_residual(residuals, points, {}).max_abs == math.inf
        above = [(t, x) for t, x in points if x > 1.0]
        assert max_residual(residuals, above, {}).max_abs < 1e-8


class TestSolveSymmetries:
    def test_brownian_classical(self):
        basis = solve_symmetries(BROWNIAN, Ansatz(tau=TAU1T, phi=PHI1X), "classical")
        assert len(basis) == 3
        pts = sample_points(40, seed=21)
        for target in (VectorField(p("2*t"), p("x")), VectorField(phi=p("1")),
                       VectorField(tau=p("1"))):
            _, resid = express_in_basis(list(basis), target, pts, {})
            assert resid < 1e-8

    def test_brownian_stochastic(self):
        basis = solve_symmetries(
            BROWNIAN, Ansatz(tau=TAU1T, phi=PHI1X, phitilde=PHI1X), "stochastic")
        assert len(basis) == 4
        assert basis.stage1_dimension == 1
        pure = [g for g in basis
                if simplify(g.tau).is_zero() and simplify(g.phi).is_zero()
                and simplify(g.phitilde).kind == "const"]
        assert len(pure) == 1

    def test_axinv_forces_zero_phitilde(self):
        basis = solve_symmetries(
            AXINV, Ansatz(tau=TAU1T, phi=PHI1X, phitilde=PHI1X), "stochastic")
        assert len(basis) == 2
        assert basis.stage1_dimension == 0
        assert all(not g.has_stochastic_part() for g in basis)

    def test_langevin_stochastic_with_exponentials(self):
        ans = Ansatz(tau=(p("1"), p("exp(2*a*t)")),
                     phi=(p("1"), p("x"), p("exp(a*t)"), p("x*exp(2*a*t)")),
                     phitilde=(p("1"), p("exp(a*t)")))
        basis = solve_symmetries(LANGEVIN, ans, "stochastic")
        assert len(basis) == 4
        pts = sample_points(40, seed=23)
        for target in (VectorField(phi=p("exp(a*t)")),
                       VectorField(p("exp(2*a*t)"), p("x*exp(2*a*t)")),
                       VectorField(tau=p("1")),
                       VectorField(phitilde=p("exp(a*t)"))):
            _, resid = express_in_basis(list(basis), target, pts, {"a": 1.0, "b": 1.0})
            assert resid < 1e-8

    def test_quadratic_coupling_q_device(self):
        # f = x*log(x), g = x admits [e^{2t} x/2 d/dx]^D + [e^t x d/dx]^S;
        # the q-device must recover the coupled (phi, phitilde) pair
        sde = Sde(p("x*log(x)"), p("x"))
        basis = solve_symmetries(
            sde, Ansatz(phi=(p("x*exp(2*t)"),), phitilde=(p("x*exp(t)"),)),
            "stochastic")
        assert len(basis) == 1
        assert basis.stage1_dimension == 1
        g = basis.generators[0]
        assert g.has_stochastic_part()
        assert not simplify(g.phi).is_zero()
        # scale-invariant coupling: phi == phitilde^2 * e^{... } / (2 x) holds
        # for any member of the family; verify the true residuals directly
        assert basis.residual_norms[0] < 1e-8

    def test_empty_ansatz(self):
        basis = solve_symmetries(BROWNIAN, Ansatz(), "stochastic")
        assert len(basis) == 0

    def test_unbound_parameter_rejected(self):
        sde = Sde(p("a*x"), p("1"), {"a": None})
        with pytest.raises(AnsatzError, match="require numeric values"):
            solve_symmetries(sde, Ansatz(tau=(p("1"),)), "classical")

    def test_incompatible_mode(self):
        with pytest.raises(AnsatzError, match="det-ode"):
            solve_symmetries(BROWNIAN, Ansatz(tau=(p("1"),)), "det-ode")
        with pytest.raises(AnsatzError, match="classical"):
            solve_symmetries(BROWNIAN, Ansatz(phitilde=(p("1"),)), "classical")

    def test_det_ode_routing(self):
        ode = Sde(p("x"), p("0"))
        basis = solve_symmetries(
            ode, Ansatz(phitilde=(p("exp(t)"), p("1"))), "stochastic")
        assert basis.mode == "det-ode"
        assert any(g.has_stochastic_part() for g in basis)

    def test_stage1_dimension_two_is_flagged(self):
        # trivial ODE dx = 0: any time-independent phitilde solves the
        # stochastic rows, so {1, x} gives a 2-dim stage-1 space; the solver
        # processes the directions one at a time and flags the restriction
        ode = Sde(p("0"), p("0"))
        basis = solve_symmetries(
            ode, Ansatz(phitilde=(p("1"), p("x"))), "stochastic")
        assert basis.stage1_dimension == 2
        assert basis.stage1_restricted
        assert len(basis) == 2
        assert all(g.has_stochastic_part() for g in basis)

    def test_determinism_bitwise(self):
        ans = Ansatz(tau=TAU1T, phi=PHI1X, phitilde=PHI1X)
        b1 = solve_symmetries(BROWNIAN, ans, "stochastic", seed=77)
        b2 = solve_symmetries(BROWNIAN, ans, "stochastic", seed=77)
        assert [str(g) for g in b1] == [str(g) for g in b2]
        for g1, g2 in zip(b1, b2):
            assert g1.tau == g2.tau and g1.phi == g2.phi and g1.phitilde == g2.phitilde

    def test_dependent_dictionary_rejected(self):
        with pytest.raises(AnsatzError, match="dependent"):
            solve_symmetries(
                BROWNIAN, Ansatz(tau=(p("t"), p("2*t"))), "classical")

    def test_rejects_x_dependent_tau_entry(self):
        with pytest.raises(AnsatzError, match="depends on x"):
            Ansatz(tau=(p("x"),))

    def test_verified_residuals_below_tolerance(self):
        ans = Ansatz(tau=TAU1T, phi=PHI1X, phitilde=PHI1X)
        basis = solve_symmetries(BROWNIAN, ans, "stochastic")
        pts = sample_points(50, seed=31)
        for g in basis:
            residuals = build_system(BROWNIAN, g, "stochastic").residuals
            assert max_residual(residuals, pts, {}).max_abs < 1e-8

    def test_langevin_stage1_forces_exponential_direction(self):
        # dictionary {1, x, e^{at}}: row (iv) kills x, row (ii) kills the
        # constant, leaving the exponential ray only
        basis = solve_symmetries(
            LANGEVIN,
            Ansatz(phitilde=(p("1"), p("x"), p("exp(a*t)"))), "stochastic")
        assert basis.stage1_dimension == 1
        assert len(basis) == 1
        g = basis.generators[0]
        ratio = simplify(g.phitilde)
        env = {"a": 1.0, "b": 1.0, "t": 0.8, "x": 1.1}
        import math as _m
        assert evaluate(ratio, env) == pytest.approx(_m.exp(0.8), rel=1e-9)

    @pytest.mark.parametrize("window", [(0.1, 2.0, 0.5, 2.0), (0.0, 3.0, -2.0, 2.0)])
    def test_langevin_classical_at_every_rate(self, window):
        # Brownian motion's three classical generators in Langevin form:
        # d/dt, exp(2at) d/dt + a x exp(2at) d/dx and exp(at) d/dx, the
        # second scaled to integers n/d = a.  exp(2at) spans up to e^48 over
        # the window, yet no sample matrix is refused or cut short.
        pf = load_problem(os.path.join(PROBLEMS, "langevin.prob"))
        ans = Ansatz(tau=pf.ansatz.tau, phi=pf.ansatz.phi)
        for a, n, d in [(0.5, "", "2*"), (1, "", ""), (2, "2*", ""),
                        (4, "4*", ""), (6, "6*", ""), (8, "8*", "")]:
            sde = Sde(p("a*x"), p("b"), {"a": float(a), "b": 1.0})
            basis = solve_symmetries(sde, ans, "classical", window=window)
            assert sorted(map(str, basis.generators)) == sorted([
                "[d/dt]^D", "[exp(a*t) d/dx]^D",
                f"[{d}exp(2*a*t) d/dt + {n}x*exp(2*a*t) d/dx]^D"])

    @pytest.mark.parametrize("a", [10, 12, 16])
    def test_langevin_stochastic_at_large_rates(self, a):
        # The three classical generators above, and the noise shift: with
        # y = x/b the drift is F(y) = a y, so phitilde = k(t) b with
        # k' = F' k = a k, that is b exp(at), scaled to exp(a*t).  exp(2at)
        # reaches e^(4a) (up to e^64) at t = 2, and the probe's affine check
        # is relative to the magnitude that cancels there.
        pf = load_problem(os.path.join(PROBLEMS, "langevin.prob"))
        sde = Sde(p("a*x"), p("b"), {"a": float(a), "b": 1.0})
        for seed in (1, 7, 42, 2026):
            basis = solve_symmetries(sde, pf.ansatz, "stochastic", seed=seed)
            assert sorted(map(str, basis.generators)) == sorted([
                "[d/dt]^D", "[exp(a*t) d/dx]^D", "[exp(a*t) d/dx]^S",
                f"[exp(2*a*t) d/dt + {a}*x*exp(2*a*t) d/dx]^D"])

    @pytest.mark.parametrize("c, coeff, refused", [
        ("2.6e-9", "13/5000000000", True),
        ("2.4e-9", "3/1250000000", False),
    ])
    def test_reverification_gate_from_both_sides(self, c, coeff, refused):
        # At the rank cut tol = 1e-8 the near-symmetry 2*(t + c*t^2) d/dt +
        # x d/dx enters the nullspace.  Its classical row for the diffusion
        # is phi_x - tau_t/2 = 1 - (1 + 2*c*t) = -2*c*t, the drift row is 0,
        # so its residual is 2*c*max(t) over the fresh points
        ans = Ansatz(tau=(p("1"), p(f"t + {c}*t^2")), phi=PHI1X)
        fresh = sample_points(32, seed=2027)  # solve_symmetries' defaults
        resid = 2 * float(c) * max(t for t, _ in fresh)
        near = f"[2*(t + {coeff}*t^2) d/dt + x d/dx]^D"
        if refused:
            assert f"{resid:.3e}" == "1.017e-08"
            with pytest.raises(AnsatzError, match=(
                    rf"^verification failure: generator {re.escape(near)} has "
                    rf"residual 1\.017e-08 > 1\.0e-08 at fresh points")):
                solve_symmetries(BROWNIAN, ans, "classical", tol=1e-8)
            return
        basis = solve_symmetries(BROWNIAN, ans, "classical", tol=1e-8)
        got = dict(zip(map(str, basis.generators), basis.residual_norms))
        assert sorted(got) == sorted(["[d/dt]^D", near, "[d/dx]^D"])
        assert got[near] == pytest.approx(resid, rel=1e-12)
        assert f"{resid:.3e}" == "9.389e-09"

    def test_tolerance_mismatch_caught_by_reverification(self):
        # A far too loose rank tolerance cuts real constraints at the SVD
        # (s > tol*s[0]), so non-symmetries enter the nullspace; the
        # fresh-point re-verification must refuse them at the default bound.
        ans = Ansatz(tau=(p("1"), p("t"), p("t^2")),
                     phi=(p("1"), p("x"), p("t*x")))
        with pytest.raises(AnsatzError, match="verification failure"):
            solve_symmetries(BROWNIAN, ans, "classical", tol=0.5)
        # No bound can trip the gate here: the generators have exact
        # rational coefficients and residual exactly 0.0.
        basis = solve_symmetries(BROWNIAN, ans, "classical")
        assert basis.residual_norms == (0.0, 0.0, 0.0)


class TestCollectionOracle:
    """Evaluation-based nullspace dimension == exhaustive symbolic collection."""

    def _dim_by_evaluation(self, sde, params, mode, tau_fns, phi_fns):
        names = [f"_c{i}" for i in range(len(tau_fns) + len(phi_fns))]
        v = VectorField(_linear_combo(names[:len(tau_fns)], tau_fns),
                        _linear_combo(names[len(tau_fns):], phi_fns), ZERO)
        ds = DeterminingSystem(build_system(sde, v, mode).residuals,
                               unknowns=tuple(names))
        pts = sample_points(24, seed=13, params=params,
                            reject=[sde.drift, sde.diffusion])
        M, _ = build_linear_system(ds, pts, params)
        return len(nullspace(M)), ds

    @pytest.mark.parametrize("case", [
        ("brownian", TAU1T, PHI1X),
        ("brownian", (p("1"),), (p("x"), p("t"), p("1"))),
        ("brownian", (p("t"), p("t^2")), (p("x"), p("x^2"))),
        ("langevin", (p("1"), p("exp(2*a*t)")), (p("exp(a*t)"), p("x*exp(2*a*t)"))),
        ("axinv", TAU1T, PHI1X),
        ("axinv", (p("t"),), (p("x"), p("x^2"), p("1"))),
    ])
    def test_dimension_agreement(self, case):
        which, tau_fns, phi_fns = case
        sde, params = {
            "brownian": (BROWNIAN, {}),
            "langevin": (LANGEVIN, {"a": 1, "b": 1}),
            "axinv": (AXINV, {"a": 1}),
        }[which]
        assert len(tau_fns) + len(phi_fns) <= 5
        dim, ds = self._dim_by_evaluation(sde, params, "classical", tau_fns, phi_fns)
        oracle = collection_nullspace_dim(ds.residuals, ds.unknowns, params)
        assert dim == oracle

    def test_stage1_dimension_agreement(self):
        for sde, params, pt_fns, expected in [
            (BROWNIAN, {}, PHI1X, 1),
            (LANGEVIN, {"a": 1, "b": 1}, (p("1"), p("x"), p("exp(a*t)")), 1),
            (AXINV, {"a": 1}, PHI1X, 0),
        ]:
            names = [f"_c{i}" for i in range(len(pt_fns))]
            v = VectorField(ZERO, ZERO, _linear_combo(names, pt_fns))
            full = build_system(sde, v, "stochastic")
            ds = DeterminingSystem((full.residuals[1], full.residuals[3]),
                                   unknowns=tuple(names))
            pts = sample_points(24, seed=17, params=params,
                                reject=[sde.drift, sde.diffusion])
            M, _ = build_linear_system(ds, pts, params)
            dim = len(nullspace(M))
            assert dim == collection_nullspace_dim(ds.residuals, ds.unknowns, params)
            assert dim == expected
