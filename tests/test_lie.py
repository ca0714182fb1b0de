"""Brackets, structure constants, and commutator-table matching."""

import itertools

import numpy as np
import pytest

from sdesym import lie
from sdesym.ansatz import DEFAULT_WINDOW, sample_points
from sdesym.determining import VectorField
from sdesym.expr import parse, simplify
from sdesym.lie import (
    ClosureError,
    LieError,
    StructureConstants,
    _gauss_newton,
    _match_residual,
    apply_match,
    bracket,
    match_basis,
    structure_constants,
)

from conftest import evaluate

PA = ("alpha", "beta")


def p(s):
    return parse(s, parameters=PA)


def source_fields():
    # symmetries of dX = (alpha X + beta) dt + dW
    return [
        VectorField(tau=p("1")),
        VectorField(p("exp(2*alpha*t)"), p("(alpha*x + beta)*exp(2*alpha*t)")),
        VectorField(phi=p("exp(alpha*t)")),
    ]


def target_fields():
    # symmetries of dX = dW
    return [
        VectorField(tau=p("1")),
        VectorField(p("2*t"), p("x")),
        VectorField(phi=p("1")),
    ]


def fields_equal(v, w, points, params):
    for t, x in points:
        env = dict(params)
        env["t"], env["x"] = t, x
        for a, b in ((v.tau, w.tau), (v.phi, w.phi)):
            if abs(evaluate(a, env) - evaluate(b, env)) > 1e-9:
                return False
    return True


class TestBracket:
    def test_scaling_pair(self):
        X1, X2, X3 = source_fields()
        params = {"alpha": 1.0, "beta": 0.5}
        pts = sample_points(20, seed=2)
        got = bracket(X1, X2)
        want = VectorField(simplify(p("2*alpha*exp(2*alpha*t)")),
                           simplify(p("2*alpha*(alpha*x+beta)*exp(2*alpha*t)")))
        assert fields_equal(got, want, pts, params)

    def test_antisymmetry_on_self(self):
        for v in source_fields():
            b = bracket(v, v)
            assert simplify(b.tau).is_zero() and simplify(b.phi).is_zero()

    def test_target_y2_y3_signed(self):
        # standard convention: [2t d/dt + x d/dx, d/dx] = -d/dx; tables in
        # the literature sometimes list the transposed-argument sign
        _, Y2, Y3 = target_fields()
        b = bracket(Y2, Y3)
        assert simplify(b.tau).is_zero()
        assert simplify(b.phi) == simplify(p("-1"))

    def test_bilinearity_random_constant_fields(self, rng):
        pts = [(0.7, 1.1), (1.3, 0.8)]
        for _ in range(20):
            c = [repr(float(v)) for v in rng.uniform(-2, 2, size=6)]
            v = VectorField(p(c[0]), p(c[1]))
            w = VectorField(p(c[2]), p(c[3]))
            u = VectorField(p(c[4]), p(c[5]))
            vw = bracket(VectorField(simplify(v.tau + w.tau),
                                     simplify(v.phi + w.phi)), u)
            sep_tau = simplify(bracket(v, u).tau + bracket(w, u).tau)
            sep_phi = simplify(bracket(v, u).phi + bracket(w, u).phi)
            assert fields_equal(vw, VectorField(sep_tau, sep_phi), pts, {})

    def test_rejects_stochastic_parts(self):
        with pytest.raises(LieError):
            bracket(VectorField(phitilde=p("1")), VectorField(tau=p("1")))


class TestStructureConstants:
    def test_source_table(self):
        params = {"alpha": 1.0, "beta": 0.0}
        pts = sample_points(32, seed=5)
        sc = structure_constants(source_fields(), pts, params)
        expected = np.zeros((3, 3, 3))
        expected[1, 0, 1] = 2.0   # [X1, X2] = 2 alpha X2
        expected[1, 1, 0] = -2.0
        expected[2, 0, 2] = 1.0   # [X1, X3] = alpha X3
        expected[2, 2, 0] = -1.0
        assert np.max(np.abs(sc.c - expected)) < 1e-9

    def test_target_table(self):
        pts = sample_points(32, seed=5)
        sc = structure_constants(target_fields(), pts, {})
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 1] = 2.0   # [Y1, Y2] = 2 Y1
        expected[0, 1, 0] = -2.0
        expected[2, 1, 2] = -1.0  # [Y2, Y3] = -Y3 (standard convention)
        expected[2, 2, 1] = 1.0
        assert np.max(np.abs(sc.c - expected)) < 1e-9

    def test_abelian(self):
        pts = sample_points(16, seed=6)
        basis = [VectorField(tau=p("1")), VectorField(phi=p("1"))]
        sc = structure_constants(basis, pts, {})
        assert np.max(np.abs(sc.c)) < 1e-12

    def test_jacobi_and_antisymmetry(self):
        params = {"alpha": 0.7, "beta": 1.3}
        pts = sample_points(32, seed=7)
        sc = structure_constants(source_fields(), pts, params)
        assert sc.jacobi_violation() < 1e-9
        assert np.max(np.abs(sc.c + sc.c.transpose(0, 2, 1))) < 1e-12

    def test_empty_basis_refused(self):
        with pytest.raises(LieError, match="no deterministic generators"):
            structure_constants([], sample_points(16, seed=6), {})

    def test_non_closure_reported(self):
        pts = sample_points(24, seed=8)
        basis = [VectorField(tau=p("1")), VectorField(p("t^2"))]
        with pytest.raises(ClosureError):
            structure_constants(basis, pts, {})


def _tables(alpha):
    params = {"alpha": alpha, "beta": 0.0}
    pts = sample_points(32, seed=5)
    sc = structure_constants(source_fields(), pts, params)
    tc = structure_constants(target_fields(), pts, {})
    return sc, tc, params


class TestMatchBasis:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_sparse_solution_pattern(self, alpha):
        sc, tc, params = _tables(alpha)
        m = match_basis(sc, tc, seed=3)
        assert m.matched and m.residual < 1e-8
        A = m.A
        nz = {(i, j) for i in range(3) for j in range(3) if A[i, j] != 0}
        assert nz == {(0, 1), (1, 0), (2, 2)}
        # magnitudes of the published sparse solution; signs are fixed by
        # the standard bracket convention (the product is sign-invariant)
        assert abs(A[0, 1]) == pytest.approx(1.0, abs=1e-8)
        assert abs(A[1, 0]) == pytest.approx(1.0 / alpha, abs=1e-8)
        assert abs(A[2, 2]) == pytest.approx(1.0, abs=1e-8)
        assert A[0, 1] * A[1, 0] == pytest.approx(-1.0 / alpha, abs=1e-8)

    def test_transformed_basis_reproduces_target_table(self):
        sc, tc, params = _tables(1.0)
        m = match_basis(sc, tc, seed=3)
        fields = apply_match(m.A, source_fields())
        pts = sample_points(32, seed=9)
        recomputed = structure_constants(fields, pts, params)
        assert np.max(np.abs(recomputed.c - tc.c)) < 1e-8

    def test_self_match_is_identity(self):
        sc, _, _ = _tables(1.0)
        m = match_basis(sc, sc, seed=0)
        assert m.matched
        assert np.max(np.abs(m.A - np.eye(3))) < 1e-8

    def test_one_dimensional_algebra_matches(self):
        # a 1 x 1 table has no entries: A = [[1]] matches with residual 0
        one = StructureConstants(np.zeros((1, 1, 1)), 1)
        m = match_basis(one, one, seed=0)
        assert m.matched and m.residual == 0.0
        assert np.array_equal(m.A, np.eye(1))

    def test_dimension_mismatch(self):
        sc, tc, _ = _tables(1.0)
        two = StructureConstants(np.zeros((2, 2, 2)), 2)
        m = match_basis(two, tc, seed=0)
        assert not m.matched

    def test_non_isomorphic_reports_no_match(self):
        abelian = StructureConstants(np.zeros((2, 2, 2)), 2)
        c = np.zeros((2, 2, 2))
        c[0, 0, 1], c[0, 1, 0] = 1.0, -1.0
        affine = StructureConstants(c, 2)
        m = match_basis(abelian, affine, seed=0)
        assert not m.matched

    def test_non_isomorphism_brute_force_floor(self):
        # coarse grid over 2x2 matrices confirms the residual floor is
        # far above the match tolerance
        abelian = StructureConstants(np.zeros((2, 2, 2)), 2)
        c = np.zeros((2, 2, 2))
        c[0, 0, 1], c[0, 1, 0] = 1.0, -1.0
        affine = StructureConstants(c, 2)
        grid = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
        floor = min(
            float(np.max(np.abs(_match_residual(np.array(A).reshape(2, 2),
                                                abelian.c, affine.c))))
            for A in itertools.product(grid, repeat=4)
            if abs(np.linalg.det(np.array(A).reshape(2, 2))) > 1e-9)
        assert floor > 1e-2

    def test_determinism(self):
        sc, tc, _ = _tables(1.0)
        m1 = match_basis(sc, tc, seed=12)
        m2 = match_basis(sc, tc, seed=12)
        assert np.array_equal(m1.A, m2.A)


class TestGaussNewton:
    def test_singular_damped_normal_matrix_is_retried(self):
        # H = J^T J has entries 1e10, so H + lam*I rounds to the singular H
        # for lam = 1e-8 and 1e-7: solve raises twice before the damping
        # has grown enough to take a step
        J = np.array([[1e5, 1e5]])
        H = J.T @ J
        for lam in (1e-8, 1e-7):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(H + lam * np.eye(2), np.ones(2))
        x, resid = _gauss_newton(lambda x: J @ x + 1.0, lambda x: J, np.zeros(2), 80)
        assert np.all(np.isfinite(x))
        assert resid < 1e-8   # from |r(0)| = 1


class TestTolerancesFromTheLooseSide:
    # each input lies between the default constant and the constant
    # loosened x10^3: the verdict flips between the two, so a looser
    # constant fails here

    def test_match_tol(self, monkeypatch):
        c = np.zeros((3, 3, 3))
        c[0, 0, 1], c[0, 1, 0] = 2.0, -2.0    # Brownian: [X1, X2] = 2 X1
        c[2, 1, 2], c[2, 2, 1] = -1.0, 1.0    # [X2, X3] = -X3
        near = c.copy()
        near[1, 0, 2], near[1, 2, 0] = 1e-6, -1e-6
        S, T = StructureConstants(c, 3), StructureConstants(near, 3)
        assert not match_basis(S, T, seed=0).matched
        monkeypatch.setattr(lie, "MATCH_TOL", lie.MATCH_TOL * 1e3)
        m = match_basis(S, T, seed=0)
        assert m.matched and m.residual == pytest.approx(1e-6)

    def test_closure_tol(self, monkeypatch):
        # [d/dx, t d/dt + 1e-6 x^2 d/dx] = 2e-6 x d/dx leaves the span by
        # about 1.45e-6 on these points
        basis = [VectorField(phi=p("1")), VectorField(p("t"), p("1/1000000*x^2"))]
        pts = sample_points(32, DEFAULT_WINDOW, 2043)
        with pytest.raises(ClosureError) as err:
            structure_constants(basis, pts, {})
        assert 1e-6 < err.value.resid < 1e-5
        monkeypatch.setattr(lie, "CLOSURE_TOL", lie.CLOSURE_TOL * 1e3)
        assert structure_constants(basis, pts, {}).n == 2
