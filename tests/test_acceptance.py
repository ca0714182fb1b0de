"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are exact recovery of the worked symbolic results plus
property-based and statistical certification; every tolerance is pinned
here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from sdesym.ansatz import (
    Ansatz,
    _linear_combo,
    build_linear_system,
    nullspace,
    sample_points,
    solve_symmetries,
)
from sdesym.determining import (
    DeterminingSystem,
    Sde,
    VectorField,
    build_system,
)
from sdesym.expr import ZERO, EvalError, diff, parse, simplify
from sdesym.lie import apply_match, bracket, match_basis, structure_constants
from sdesym.numeric import _flow_image, _simulate_uniform, verify_map
from sdesym.transform import PairedSymmetries, TransformMap, transformation_system

from conftest import (
    collection_nullspace_dim,
    evaluate,
    express_in_basis,
    random_expr,
    random_point,
    time_change,
)

PA = ("a", "b", "alpha", "beta")


def p(s):
    return parse(s, parameters=PA)


BROWNIAN = Sde(p("0"), p("1"))
TAU1T = (p("1"), p("t"))
PHI1X = (p("1"), p("x"))


def _span_ok(basis, targets, params, tol=1e-8):
    pts = sample_points(40, seed=97, params=params)
    return all(express_in_basis(list(basis), v, pts, params)[1] < tol
               for v in targets)


def test_criterion_1_brownian_classical():
    t0 = time.perf_counter()
    basis = solve_symmetries(BROWNIAN, Ansatz(tau=TAU1T, phi=PHI1X), "classical")
    elapsed = time.perf_counter() - t0
    assert len(basis) == 3
    targets = [VectorField(p("2*t"), p("x")), VectorField(phi=p("1")),
               VectorField(tau=p("1"))]
    assert _span_ok(basis, targets, {})
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: Brownian classical dim 3, span residual < 1e-8, "
          f"{elapsed*1e3:.0f} ms")


def test_criterion_2_brownian_stochastic():
    t0 = time.perf_counter()
    basis = solve_symmetries(
        BROWNIAN, Ansatz(tau=TAU1T, phi=PHI1X, phitilde=PHI1X), "stochastic")
    elapsed = time.perf_counter() - t0
    assert len(basis) == 4
    pure = [g for g in basis
            if simplify(g.tau).is_zero() and simplify(g.phi).is_zero()
            and simplify(g.phitilde).kind == "const"
            and not simplify(g.phitilde).is_zero()]
    assert len(pure) == 1
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: Brownian stochastic dim 4 incl. constant "
          f"pure-stochastic generator, {elapsed*1e3:.0f} ms")


def test_criterion_3_langevin_stochastic():
    lg = Sde(p("a*x"), p("b"), {"a": 1.0, "b": 1.0})
    ans = Ansatz(tau=(p("1"), p("exp(2*a*t)")),
                 phi=(p("1"), p("x"), p("exp(a*t)"), p("x*exp(2*a*t)")),
                 phitilde=(p("1"), p("exp(a*t)")))
    basis = solve_symmetries(lg, ans, "stochastic")
    assert len(basis) == 4
    params = {"a": 1.0, "b": 1.0}
    targets = [VectorField(phi=p("exp(a*t)")),
               VectorField(p("exp(2*a*t)/a"), p("exp(2*a*t)*x")),
               VectorField(tau=p("1")),
               VectorField(phitilde=p("exp(a*t)"))]
    assert _span_ok(basis, targets, params)
    print("\nACCEPTANCE 3 PASS: Langevin stochastic dim 4 spans published "
          "generators + exponential stochastic one, residual < 1e-8")


def test_criterion_4_inverse_drift_forces_deterministic():
    sde = Sde(p("a/x"), p("1"), {"a": 1.0})
    basis = solve_symmetries(
        sde, Ansatz(tau=TAU1T, phi=PHI1X, phitilde=PHI1X), "stochastic")
    assert len(basis) == 2
    assert basis.stage1_dimension == 0
    assert all(not g.has_stochastic_part() for g in basis)
    print("\nACCEPTANCE 4 PASS: a/x drift stochastic basis has dim exactly 2, "
          "stage 1 forces phitilde = 0")


def _section3_fields(alpha, beta):
    src = [VectorField(tau=p("1")),
           VectorField(p("exp(2*alpha*t)"), p("(alpha*x + beta)*exp(2*alpha*t)")),
           VectorField(phi=p("exp(alpha*t)"))]
    tgt = [VectorField(tau=p("1")), VectorField(p("2*t"), p("x")),
           VectorField(phi=p("1"))]
    return src, tgt


def test_criterion_5_commutator_tables():
    src, tgt = _section3_fields(1.0, 0.0)
    params = {"alpha": 1.0, "beta": 0.0}
    pts = sample_points(32, seed=5)
    sc = structure_constants(src, pts, params)
    tc = structure_constants(tgt, pts, {})
    exp_src = np.zeros((3, 3, 3))
    exp_src[1, 0, 1], exp_src[1, 1, 0] = 2.0, -2.0    # [X1,X2] = 2a X2
    exp_src[2, 0, 2], exp_src[2, 2, 0] = 1.0, -1.0    # [X1,X3] = a X3
    exp_tgt = np.zeros((3, 3, 3))
    exp_tgt[0, 0, 1], exp_tgt[0, 1, 0] = 2.0, -2.0    # [Y1,Y2] = 2 Y1
    exp_tgt[2, 1, 2], exp_tgt[2, 2, 1] = -1.0, 1.0    # [Y2,Y3] = -Y3 (std sign)
    assert float(np.max(np.abs(sc.c - exp_src))) < 1e-9
    assert float(np.max(np.abs(tc.c - exp_tgt))) < 1e-9
    print("\nACCEPTANCE 5 PASS: commutator tables match to 1e-9 "
          "([X1,X2]=2aX2, [X1,X3]=aX3, [X2,X3]=0; target table in the "
          "standard sign convention)")


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_criterion_6_basis_match(alpha):
    src, tgt = _section3_fields(alpha, 0.0)
    params = {"alpha": alpha, "beta": 0.0}
    pts = sample_points(32, seed=5)
    sc = structure_constants(src, pts, params)
    tc = structure_constants(tgt, pts, {})
    m = match_basis(sc, tc, seed=3)
    assert m.matched and m.residual < 1e-8
    A = m.A
    nz = {(i, j) for i in range(3) for j in range(3) if A[i, j] != 0.0}
    assert nz == {(0, 1), (1, 0), (2, 2)}
    # published |entries|: |a12| = 1, |a21| = 1/alpha, |a33| = 1; under the
    # standard bracket the signs come out (+1, -1/alpha, +1), with the
    # sign-invariant product a12 * a21 = -1/alpha (see lie module notes)
    assert abs(A[0, 1]) == pytest.approx(1.0, abs=1e-8)
    assert abs(A[1, 0]) == pytest.approx(1.0 / alpha, abs=1e-8)
    assert abs(A[2, 2]) == pytest.approx(1.0, abs=1e-8)
    assert A[0, 1] * A[1, 0] == pytest.approx(-1.0 / alpha, abs=1e-8)
    print(f"\nACCEPTANCE 6 PASS (alpha={alpha}): sparse match "
          f"|a12|=1, |a21|=1/alpha, |a33|=1, residual {m.residual:.1e}")


MU1_BASIS = (p("1"), p("exp(-2*alpha*t)"))
MU2_BASIS = (p("x*exp(-alpha*t)"), p("exp(-alpha*t)"), p("x"), p("1"))


def test_criterion_7_map_recovery():
    from sdesym.transform import solve_map

    # end-to-end: solve symmetries, match, build the map conditions, solve
    params = {"alpha": 1.0, "beta": 0.0}
    src_sde = Sde(p("alpha*x + beta"), p("1"), dict(params))
    src_basis = solve_symmetries(src_sde, Ansatz(
        tau=(p("1"), p("exp(2*alpha*t)")),
        phi=(p("exp(alpha*t)"), p("(alpha*x+beta)*exp(2*alpha*t)"))), "classical")
    tgt_basis = solve_symmetries(BROWNIAN, Ansatz(tau=TAU1T, phi=PHI1X), "classical")
    pts = sample_points(32, seed=11)
    m = match_basis(structure_constants(list(src_basis), pts, params),
                    structure_constants(list(tgt_basis), pts, {}), seed=3)
    assert m.matched
    pairs = PairedSymmetries.from_tx(
        list(zip(apply_match(m.A, list(src_basis)), tgt_basis)))
    tmap = solve_map(pairs, MU1_BASIS, MU2_BASIS, params=params,
                     window=(0.0, 1.0, 0.5, 2.0))
    # returned map equals the published one up to the gauge constant in mu1
    ref1 = p("-exp(-2*alpha*t)/(2*alpha)")
    ref2 = p("exp(-alpha*t)*(x + beta/alpha)")
    env0 = dict(params, t=0.0, x=0.0)
    shift = evaluate(tmap.mu1, env0) - evaluate(ref1, env0)
    rng = np.random.default_rng(23)
    for _ in range(50):
        env = dict(params, t=float(rng.uniform(0, 1)), x=float(rng.uniform(0.5, 2)))
        assert evaluate(tmap.mu1, env) - shift == pytest.approx(
            evaluate(ref1, env), abs=1e-9)
        assert evaluate(tmap.mu2, env) == pytest.approx(
            evaluate(ref2, env), abs=1e-9)

    # substituting the published map into the generated system: < 1e-10
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.0, 1.0):
            prm = {"alpha": alpha, "beta": beta}
            srcf, tgtf = _section3_fields(alpha, beta)
            matched = [VectorField(srcf[1].tau, srcf[1].phi),
                       VectorField(tau=simplify(p("-1/alpha"))),
                       srcf[2]]
            prs = PairedSymmetries.from_tx(list(zip(matched, tgtf)))
            system = transformation_system(prs, ref1, ref2)
            rng2 = np.random.default_rng(29)
            for _ in range(100):
                env = dict(prm, t=float(rng2.uniform(0, 1.5)),
                           x=float(rng2.uniform(0.5, 2)))
                for r in system.residuals:
                    worst = max(worst, abs(evaluate(r, env)))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 7 PASS: find-map recovers mu1 = -exp(-2at)/(2a) + c, "
          f"mu2 = exp(-at)(x + b/a); published map residual {worst:.1e} < 1e-10")


def test_criterion_8_monte_carlo_map_verification():
    src = Sde(p("x"), p("1"))
    paper = TransformMap(parse("-1/2*exp(-2*t)"), parse("x*exp(-t)"))
    wrong = TransformMap(parse("-1/2*exp(-2*t)"), parse("x"))
    n_pass = n_fail = 0
    slowest = 0.0
    for rep in range(100):
        t0 = time.perf_counter()
        ok = verify_map(src, BROWNIAN, paper, x0=1.0, h=1e-3, K=1000,
                        n_paths=2000, seed=3000 + rep).passed
        slowest = max(slowest, time.perf_counter() - t0)
        n_pass += ok
        bad = verify_map(src, BROWNIAN, wrong, x0=1.0, h=1e-3, K=1000,
                         n_paths=2000, seed=3000 + rep).passed
        n_fail += (not bad)
    assert n_pass >= 95
    assert n_fail >= 95
    assert slowest < 30.0
    print(f"\nACCEPTANCE 8 PASS: paper map {n_pass}/100 pass, wrong map "
          f"{n_fail}/100 fail, slowest repetition {slowest:.2f} s < 30 s")


def test_criterion_9_property_suite(rng):
    # (a) symbolic derivative vs central finite differences, 200 expressions
    checked = 0
    for _ in range(200):
        e = random_expr(rng, 4)
        d = diff(e, "x")
        pts = 0
        while pts < 10:
            env = random_point(rng)
            try:
                exact = evaluate(d, env)
                fd = (evaluate(e, dict(env, x=env["x"] + 1e-5))
                      - evaluate(e, dict(env, x=env["x"] - 1e-5))) / 2e-5
            except EvalError:
                continue
            pts += 1
            if not (math.isfinite(exact) and math.isfinite(fd)) or abs(exact) > 1e8:
                continue
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
            checked += 1
    assert checked > 1000

    # (b) Theorem-1 reduction at phitilde = 0: structural + 100-point numeric
    lg = Sde(p("a*x"), p("b"), {"a": 1.0, "b": 1.0})
    for sde, params in ((BROWNIAN, {}), (lg, {"a": 1.0, "b": 1.0})):
        v = VectorField(p("t"), p("x^2 + 1"))
        st = build_system(sde, v, "stochastic")
        cl = build_system(sde, v, "classical")
        assert st.residuals[0] == cl.residuals[0]
        assert st.residuals[2] == cl.residuals[1]
        assert st.residuals[1].is_zero() and st.residuals[3].is_zero()
        rr = np.random.default_rng(31)
        for _ in range(100):
            env = dict(params, t=float(rr.uniform(0.1, 2)),
                       x=float(rr.uniform(0.5, 2)))
            for i, j in ((0, 0), (2, 1)):
                a_ = evaluate(st.residuals[i], env)
                b_ = evaluate(cl.residuals[j], env)
                assert abs(a_ - b_) <= 1e-10 * max(1.0, abs(b_))

    # (c) bracket antisymmetry + Jacobi at 1e-9
    src, _ = _section3_fields(0.7, 1.3)
    params = {"alpha": 0.7, "beta": 1.3}
    pts = sample_points(32, seed=41)
    sc = structure_constants(src, pts, params)
    assert np.max(np.abs(sc.c + sc.c.transpose(0, 2, 1))) < 1e-9
    assert sc.jacobi_violation() < 1e-9
    for v in src:
        b = bracket(v, v)
        assert simplify(b.tau).is_zero() and simplify(b.phi).is_zero()

    # (d) nullspace vs symbolic collection on dictionaries with <= 4 unknowns
    cases = [
        (BROWNIAN, {}, TAU1T, PHI1X),
        (BROWNIAN, {}, (p("1"),), (p("x"), p("t"), p("1"))),
        (lg, {"a": 1, "b": 1}, (p("1"), p("exp(2*a*t)")),
         (p("exp(a*t)"), p("x*exp(2*a*t)"))),
        (Sde(p("a/x"), p("1"), {"a": 1.0}), {"a": 1}, TAU1T, PHI1X),
    ]
    for sde, params2, tau_fns, phi_fns in cases:
        assert len(tau_fns) + len(phi_fns) <= 4
        names = [f"_c{i}" for i in range(len(tau_fns) + len(phi_fns))]
        v = VectorField(_linear_combo(names[:len(tau_fns)], tau_fns),
                        _linear_combo(names[len(tau_fns):], phi_fns), ZERO)
        ds = DeterminingSystem(build_system(sde, v, "classical").residuals,
                               unknowns=tuple(names))
        eval_pts = sample_points(24, seed=13, params=params2,
                                 reject=[sde.drift, sde.diffusion])
        M, _ = build_linear_system(ds, eval_pts, params2)
        assert len(nullspace(M)) == collection_nullspace_dim(
            ds.residuals, ds.unknowns, params2)

    # (e) flow invertibility at 1e-6
    times, X, aborted = _simulate_uniform(BROWNIAN, 0.2, 1e-2, 80, 24, 13,
                                          range(81))
    scaling = VectorField(p("2*t"), p("x"))
    beta, fwd, aborted = _flow_image(scaling, 0.35, {}, times, X[:, :8].copy(),
                                     slice(None), X, aborted)
    back_times, back, _ = _flow_image(scaling, -0.35, {}, beta,
                                      fwd[:, :8].copy(), slice(None), fwd,
                                      aborted)
    assert float(np.max(np.abs(back - X))) < 1e-6
    assert float(np.max(np.abs(back_times - times))) < 1e-6

    # (f) eta^2 equals d(beta)/dt to rel. 1e-5
    for t in (0.1, 0.8, 1.7):
        eta2 = float(time_change(scaling, {}, 0.2, np.array([t]))[1][0])
        d = 1e-5
        ends = time_change(scaling, {}, 0.2, np.array([t - d, t + d]))[0]
        fd = float(ends[1] - ends[0]) / (2 * d)
        assert abs(eta2 - fd) <= 1e-5 * max(1.0, abs(fd))

    print("\nACCEPTANCE 9 PASS: derivative FD (1e-6, 200 exprs), Theorem-1 "
          "reduction (1e-10), bracket antisymmetry/Jacobi (1e-9), "
          "collection-oracle agreement (<= 4 unknowns), flow invertibility "
          "(1e-6), eta^2 = d(beta)/dt (rel 1e-5)")
