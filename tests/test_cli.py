"""Command-line surface: commands, exit codes, golden stability."""

import os
import subprocess
import sys

import pytest

from sdesym.ansatz import sample_points
from sdesym.cli import _load, build_parser, main
from sdesym.problem import SETTINGS, load_problem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(ROOT, "problems")


GOLDEN = os.path.join(ROOT, "tests", "golden")
SHIPPED = ("axinv", "brownian", "langevin-affine", "langevin")


def prob(name):
    return os.path.join(PROBLEMS, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def gen_file(tmp_path):
    def make(text, name="field.gen"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return make


class TestSymmetries:
    def test_brownian_stochastic(self, capsys):
        code, out, _ = run(capsys, "--mode", "stochastic", "symmetries",
                           prob("brownian.prob"))
        assert code == 0
        assert "generators (4)" in out
        assert "[2*t d/dt + x d/dx]^D" in out
        assert "[d/dx]^S" in out
        assert "[d/dt]^D" in out and "[d/dx]^D" in out

    def test_brownian_classical(self, capsys):
        code, out, _ = run(capsys, "--mode", "classical", "symmetries",
                           prob("brownian.prob"))
        assert code == 0
        assert "generators (3)" in out

    def test_axinv(self, capsys):
        code, out, _ = run(capsys, "--mode", "stochastic", "symmetries",
                           prob("axinv.prob"))
        assert code == 0
        assert "generators (2)" in out
        assert "]^S" not in out

    def test_negative_term_prints_a_minus(self, capsys, gen_file):
        # dx = x^2 dt: the stage-1 example of the det-ode mode
        path = gen_file("[sde]\ndrift = x^2\ndiffusion = 0\n[ansatz]\n"
                        "tau = poly(t;1)\nphi = poly(x;1)\n"
                        "phitilde = x^2 + (t*x^2 + x)\n", "ode.prob")
        code, out, _ = run(capsys, "--mode", "det-ode", "symmetries", path)
        assert code == 0
        assert "  X2 = [t d/dt - x d/dx]^D\n" in out
        assert "+ -" not in out

    def test_langevin(self, capsys):
        code, out, _ = run(capsys, "--mode", "stochastic", "symmetries",
                           prob("langevin.prob"))
        assert code == 0
        assert "generators (4)" in out
        assert "[exp(a*t) d/dx]^S" in out

    def test_unset_parameter_exit_2(self, capsys, tmp_path):
        text = (prob_text := open(prob("langevin.prob")).read()).replace(
            "param a = 1.0", "param a")
        path = tmp_path / "unset.prob"
        path.write_text(text)
        code, _, err = run(capsys, "symmetries", str(path))
        assert code == 2
        assert "requires a value" in err
        assert err == f"error: {path}: parameter a requires a value\n"

    # declarations that were silently dropped or could never be used
    @pytest.mark.parametrize("declare, line, message", [
        ("param x = 2", 2, "x is declared as var and as param"),
        ("param t", 2, "t is declared as var and as param"),
        ("var a\nparam a = 2", 3, "a is declared as var and as param"),
        ("param a = 2\nvar a", 3, "a is declared as var and as param"),
        ("var 1z", 2, "var '1z' is not a name"),
        ("param a b = 2", 2, "param 'a b' is not a name"),
        ("param = 2", 2, "param '' is not a name"),
    ])
    def test_unusable_declaration_exit_2(self, capsys, tmp_path, declare, line,
                                         message):
        path = tmp_path / "decl.prob"
        path.write_text(f"[declare]\n{declare}\n[sde]\ndrift = 0\ndiffusion = 1\n")
        code, out, err = run(capsys, "symmetries", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:{line}: {message}\n"

    @pytest.mark.parametrize("spec", ["poly(;1)", "poly( , ;0)", "exp(t)*poly(;2)"])
    def test_poly_without_variable_exit_2(self, capsys, tmp_path, spec):
        # poly(;1) gave the entry 1 alone, and dropped the scaling generator
        path = tmp_path / "poly.prob"
        path.write_text(open(prob("brownian.prob")).read().replace(
            "tau = poly(t;1)", f"tau = {spec}"))
        code, out, err = run(capsys, "symmetries", str(path))
        assert (code, out) == (2, "")
        inner = spec[spec.index("poly("):]
        assert err == f"error: {path}:11: poly spec '{inner}' names no variable\n"

    @pytest.mark.parametrize("spec, message", [
        ("poly(q;1)", "poly variable 'q' is not a declared variable"),
        ("poly(t)", "poly spec 'poly(t)' needs a ';degree' part"),
        ("poly(t;1.5)", "poly degree '1.5' is not an integer"),
        ("poly(t;-1)", "poly degree must be >= 0"),
    ])
    def test_malformed_poly_names_the_line(self, capsys, tmp_path, spec, message):
        path = tmp_path / "poly.prob"
        path.write_text(open(prob("brownian.prob")).read().replace(
            "tau = poly(t;1)", f"tau = {spec}"))
        code, out, err = run(capsys, "symmetries", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:11: {message}\n"

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text("[sde]\ndrift = )(\ndiffusion = 1\n")
        code, _, err = run(capsys, "symmetries", str(path))
        assert code == 2

    def test_superscript_digit_exit_2(self, capsys, tmp_path):
        path = tmp_path / "superscript.prob"
        path.write_text("[sde]\ndrift = ²\ndiffusion = 1\n", encoding="utf-8")
        code, out, err = run(capsys, "symmetries", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:2: unexpected character '²' (at position 0)\n"

    def test_solver_failure_exit_3(self, capsys, tmp_path):
        # linearly dependent dictionary entries make the solve ill-posed
        path = tmp_path / "dependent.prob"
        path.write_text(
            "[declare]\nvar t\nvar x\n\n[sde]\ndrift = 0\ndiffusion = 1\n\n"
            "[ansatz]\ntau = poly(t;1) + 2*t\nphi = poly(x;1)\n")
        code, _, err = run(capsys, "symmetries", str(path))
        assert code == 3
        assert "dependent" in err

    def test_overflowing_dictionary_entry_exit_2(self, tmp_path):
        # the entry overflows to inf in a sum with finite terms; the error
        # names the point and the entry, and no traceback escapes
        path = tmp_path / "ovf.prob"
        path.write_text(
            "[declare]\nvar t\nvar x\n\n[sde]\ndrift = 0\ndiffusion = 1\n\n"
            "[ansatz]\ntau = poly(t;1)\nphi = x + (1e308*x + 1e308*t)\n")
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run([sys.executable, "-m", "sdesym.cli", "--mode",
                               "classical", "symmetries", str(path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "error: evaluation failed at point" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_constant_division_by_zero_is_no_crash(self, capsys, tmp_path):
        # 1/(1 - 1) has no arguments; compile_fn still gives inf, so every
        # sample point is rejected rather than a ZeroDivisionError raised
        path = tmp_path / "divz.prob"
        path.write_text(
            "[declare]\nvar t\nvar x\n\n[sde]\ndrift = x + 1/(1 - 1)\n"
            "diffusion = 1\n\n[ansatz]\ntau = poly(t;1)\nphi = poly(x;1)\n")
        code, _, err = run(capsys, "symmetries", str(path))
        assert code == 3
        assert "could not sample" in err

    @pytest.mark.parametrize("entry, reason", [("2^3000.0", "overflow in power"),
                                               ("2^3000", "overflow in power"),
                                               ("exp(1000.0)", "overflow in exp")])
    def test_overflowing_constant_exit_2(self, capsys, tmp_path, entry, reason):
        # simplify leaves a constant beyond the float range unfolded;
        # evaluation then names it, where folding it raised OverflowError.
        # A decimal literal is exact, so 3000.0 prints as 3000.
        path = tmp_path / "ovf.prob"
        path.write_text(open(prob("brownian.prob")).read().replace(
            "phi = poly(x;1)", f"phi = poly(x;1) + {entry}"))
        code, out, err = run(capsys, "symmetries", str(path))
        assert code == 2 and out == ""
        assert f"{reason} in subexpression '{entry.replace('.0', '')}'" in err

    def test_huge_power_stays_unfolded(self, tmp_path):
        # computing 10^999999999 would not finish: it stays unfolded, and
        # evaluation names it.  A fresh process runs it, so that a hang
        # fails the test
        path = tmp_path / "pow.prob"
        path.write_text(open(prob("brownian.prob")).read().replace(
            "phi = poly(x;1)", "phi = poly(x;1) + 10^999999999*x^2"))
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run([sys.executable, "-m", "sdesym.cli", "--mode",
                               "classical", "symmetries", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "overflow in power in subexpression '10^999999999'" in proc.stderr

    def test_exact_constants_stay_printable(self, capsys, tmp_path):
        # Python prints no integer of more than 4,300 digits: 10^-5000 stays
        # an unfolded power, and a product folding to 10^4500 is refused
        text = open(prob("brownian.prob")).read()
        path = tmp_path / "tiny.prob"
        path.write_text(text.replace(
            "phi = poly(x;1)", "phi = poly(x;1) + (x^3 + 10^-5000*x^2)"))
        code, out, err = run(capsys, "--mode", "classical", "symmetries", str(path))
        assert code == 0 and err == "" and "generators (3)" in out
        path.write_text(text.replace(
            "phi = poly(x;1)", "phi = poly(x;1) + " + "*".join(["1e300"] * 15)))
        code, out, err = run(capsys, "--mode", "classical", "symmetries", str(path))
        assert code == 2 and out == ""
        assert "exact constant of more than 1100 bits in subexpression" in err

    def test_too_long_literal_exit_2(self, capsys, tmp_path):
        # a literal of more digits than Python converts to an int is a
        # parse error at its position, not a traceback
        path = tmp_path / "long.prob"
        path.write_text(open(prob("brownian.prob")).read().replace(
            "phi = poly(x;1)", "phi = poly(x;1) + 0." + "1" * 5000 + "*x^2"))
        code, out, err = run(capsys, "symmetries", str(path))
        assert code == 2 and out == ""
        assert "number '0.1111111111'... has too many digits to read exactly" in err

    def test_decimal_literals_print_as_exact_rationals(self, capsys, tmp_path):
        # a decimal literal is the exact rational of its text: the file
        # written with decimals prints as the one written with exact
        # literals, where a float 0.5 would print as 0.5
        text = open(prob("langevin.prob")).read()
        outs = []
        for drift, half in (("1.0*a*x", "0.5"), ("a*x", "1/2")):
            path = tmp_path / f"langevin-{len(outs)}.prob"
            path.write_text(text.replace("drift = a*x", f"drift = {drift}").replace(
                "phi = poly(x;1) + exp(a*t)*poly(x;0)",
                f"phi = poly(x;0) + {half}*x + {half}*exp(a*t)"))
            code, out, err = run(capsys, "symmetries", str(path))
            assert code == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]
        assert "X3 = [1/2*exp(a*t) d/dx]^D" in outs[0]

    def test_golden_stability(self, capsys):
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "--output", "kv", "--mode", "stochastic",
                               "symmetries", prob("brownian.prob"))
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_all_shipped_problems_golden(self, capsys):
        for name in ("brownian.prob", "langevin.prob", "axinv.prob"):
            first = run(capsys, "--output", "kv", "--mode", "stochastic",
                        "symmetries", prob(name))
            second = run(capsys, "--output", "kv", "--mode", "stochastic",
                         "symmetries", prob(name))
            assert first == second
            assert first[0] == 0


class TestBrackets:
    def test_no_deterministic_generator_exit_3(self, capsys, tmp_path):
        path = tiny_problem(tmp_path, "phitilde = poly(x;0)")
        code, out, err = run(capsys, "brackets", path)
        assert code == 3 and out == ""
        assert err == "error: no deterministic generators to bracket\n"

    def test_langevin_affine_table(self, capsys):
        # langevin.prob computes the X3 coefficient within rounding of 1
        for name in ("langevin-affine.prob", "langevin.prob"):
            code, out, _ = run(capsys, "--mode", "classical", "brackets",
                               prob(name))
            assert code == 0
            assert "[X1, X2] = 2*X2" in out
            assert "[X1, X3] = X3" in out
            assert "[X2, X3] = 0" in out

    def test_kv_output(self, capsys):
        code, out, _ = run(capsys, "--output", "kv", "--mode", "classical",
                           "brackets", prob("langevin-affine.prob"))
        assert code == 0
        assert "c.2.1.2 = 2" in out
        assert "c.3.1.3 = 1" in out


# Brownian motion with a one-entry dictionary: the algebra {d/dt}, or (with
# only a phitilde entry) no deterministic generator at all
def tiny_problem(tmp_path, ansatz):
    path = tmp_path / "tiny.prob"
    path.write_text("[sde]\ndrift = 0\ndiffusion = 1\n\n[ansatz]\n" + ansatz
                    + "\n\n[map.ansatz]\nmu1 = poly(t;1)\nmu2 = poly(x;1)\n")
    return str(path)


class TestMatch:
    def test_one_dimensional_algebra_matches(self, capsys, tmp_path):
        path = tiny_problem(tmp_path, "tau = poly(t;0)")
        code, out, err = run(capsys, "--output", "kv", "match", path, path)
        assert code == 0 and err == ""
        assert out == "match.matched = true\nmatch.residual = 0.000e+00\nmatch.A.1 = 1\n"

    @pytest.mark.parametrize("command", ["match", "find-map"])
    def test_empty_algebra_exit_3(self, capsys, tmp_path, command):
        path = tiny_problem(tmp_path, "phitilde = poly(x;0)")
        code, out, err = run(capsys, command, path, path)
        assert code == 3 and out == ""
        assert err == "error: no deterministic generators to bracket\n"

    def test_langevin_to_brownian(self, capsys):
        code, out, _ = run(capsys, "match", prob("langevin-affine.prob"),
                           prob("brownian.prob"))
        assert code == 0
        assert "matched: True" in out

    def test_dimension_mismatch_exit_4(self, capsys, tmp_path):
        # target with a dictionary too small to close the 3-dim algebra
        path = tmp_path / "small.prob"
        path.write_text(
            "[declare]\nvar t\nvar x\n\n[sde]\ndrift = 0\ndiffusion = 1\n\n"
            "[ansatz]\ntau = poly(t;0)\nphi = poly(x;0)\n")
        code, _, err = run(capsys, "match", prob("langevin-affine.prob"), str(path))
        assert code == 4
        assert "dimensions differ" in err


class TestFindMap:
    def test_end_to_end(self, capsys):
        code, out, _ = run(capsys, "find-map", prob("langevin-affine.prob"),
                           prob("brownian.prob"))
        assert code == 0
        assert "mu1 = -1/2*exp(-2*alpha*t)" in out
        assert "mu2 = x*exp(-(alpha*t))" in out
        assert "pass = true" in out

    def test_identity_problem(self, capsys):
        code, out, _ = run(capsys, "find-map", prob("brownian.prob"),
                           prob("brownian.prob"))
        assert code == 0
        assert "mu1 = t" in out
        assert "mu2 = x" in out
        assert "pass = true" in out

    def test_map_not_invertible_in_x_exit_3(self, capsys, tmp_path):
        # the pair (d/dt, d/ds) leaves mu2 free; its minimum-norm gauge is 0
        path = tiny_problem(tmp_path, "tau = poly(t;0)")
        code, out, err = run(capsys, "--paths", "300", "find-map", path, path)
        assert code == 3 and out == ""
        assert err.startswith("error: mu2 is not invertible in x")

    def test_missing_map_ansatz_exit_2(self, capsys, tmp_path):
        text = open(prob("langevin-affine.prob")).read()
        body = "\n".join(
            line for line in text.splitlines()
            if not line.startswith(("mu1", "mu2", "[map.ansatz]")))
        path = tmp_path / "nomap.prob"
        path.write_text(body)
        code, _, err = run(capsys, "find-map", str(path), prob("brownian.prob"))
        assert code == 2
        assert "map.ansatz" in err

    def test_clashing_parameter_exit_2_before_the_solves(self, capsys, tmp_path,
                                                       monkeypatch):
        import sdesym.cli as cli

        monkeypatch.setattr(cli, "solve_symmetries", lambda *a, **k: pytest.fail())
        path = tmp_path / "alpha3.prob"
        path.write_text("[declare]\nparam alpha = 3.0\n"
                        + open(prob("brownian.prob")).read())
        code, out, err = run(capsys, "find-map", prob("langevin-affine.prob"),
                             str(path))
        assert (code, out) == (2, "")
        assert "parameter alpha is 1.0 in the source and 3.0 in the target" in err

    def test_equal_parameter_passes(self, capsys, tmp_path):
        path = tmp_path / "alpha1.prob"
        path.write_text("[declare]\nparam alpha = 1.0\n"
                        + open(prob("brownian.prob")).read())
        code, out, _ = run(capsys, "--paths", "300", "find-map",
                           prob("langevin-affine.prob"), str(path))
        assert code == 0 and "pass = true" in out

    def test_points_reach_the_map_solve(self, capsys, monkeypatch):
        import sdesym.transform as transform

        counts = []

        def spy(n, *args, **kwargs):
            counts.append(n)
            return sample_points(n, *args, **kwargs)
        monkeypatch.setattr(transform, "sample_points", spy)
        code, _, _ = run(capsys, "--points", "24", "--paths", "200", "find-map",
                         prob("langevin-affine.prob"), prob("brownian.prob"))
        assert code == 0
        assert counts == [24, 32]  # the solve's points, then max(32, 24 // 2) fresh


class TestVerifySymmetry:
    def test_pure_stochastic_pass(self, capsys, gen_file):
        path = gen_file("tau = 0\nphi = 0\nphitilde = 1\n")
        code, out, _ = run(capsys, "verify-symmetry", prob("brownian.prob"),
                           "--generator", path)
        assert code == 0
        assert "residual.pass = true" in out

    def test_deterministic_runs_flow_check(self, capsys, gen_file):
        path = gen_file("tau = 2*t\nphi = x\n")
        code, out, _ = run(capsys, "--paths", "1200", "verify-symmetry",
                           prob("brownian.prob"), "--generator", path,
                           "--eps", "0.2")
        assert code == 0
        assert "checkpoint.4.p_value" in out

    @pytest.mark.parametrize("text, reason", [
        ("mu1 = t\n", "unknown key 'mu1' (expected tau, phi, phitilde)"),
        ("", "the generator is zero"),
        ("tau = 0*t\n", "the generator is zero"),
    ])
    def test_not_a_generator_exit_2(self, capsys, gen_file, text, reason):
        path = gen_file(text)
        code, out, err = run(capsys, "verify-symmetry", prob("brownian.prob"),
                             "--generator", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {reason}\n"

    def test_repeated_key_exit_2(self, capsys, gen_file):
        # the last line used to win: the field `tau = 2*t, phi = 0` was
        # checked with no word about the first phi
        path = gen_file("tau = 2*t\nphi = x\nphi = 0\n")
        code, out, err = run(capsys, "verify-symmetry", prob("brownian.prob"),
                             "--generator", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:3: duplicate phi\n"

    def test_flow_not_converged_exit_5(self, capsys, gen_file):
        # the residuals vanish, but at eps = 5 the time change t exp(10)
        # outruns 64 RK4 substeps
        path = gen_file("tau = 2*t\nphi = x\n")
        code, out, err = run(capsys, "--paths", "200", "verify-symmetry",
                             prob("brownian.prob"), "--generator", path,
                             "--eps", "5")
        assert code == 5
        assert "residual.pass = true" in out and "checkpoint" not in out
        assert err.startswith("error: flow integration did not converge "
                              "(step-halving difference ")

    def test_bogus_candidate_exit_5(self, capsys, gen_file):
        path = gen_file("tau = 0\nphi = t\nphitilde = 0\n")
        code, out, _ = run(capsys, "verify-symmetry", prob("brownian.prob"),
                           "--generator", path)
        assert code == 5
        assert "residual.pass = false" in out

    @pytest.mark.parametrize("n, code, mag, passed", [
        (101, 5, "1.010000e-08", "false"),
        (99, 0, "9.900000e-09", "true"),
    ])
    def test_residual_block_at_the_gate(self, capsys, gen_file, n, code, mag,
                                        passed):
        # phi = c*t with c = n/10^10 on Brownian motion: row (i) is phi_t = c
        # at every one of the 200 points, rows (ii)-(iv) are 0, so the gate
        # VERIFY_TOL = 1e-8 refuses c = 1.01e-8 before any simulation and
        # passes c = 0.99e-8 on to the KS check
        path = gen_file(f"tau = 0\nphi = {n}/10000000000*t\n")
        got, out, _ = run(capsys, "--paths", "200", "verify-symmetry",
                          prob("brownian.prob"), "--generator", path)
        assert got == code
        block = (f"residual.max_abs = {mag}\n"
                 f"residual.tol = 1.0e-08\n"
                 f"residual.n_points = 200\n"
                 f"residual.pass = {passed}\n"
                 f"residual.1.max_abs = {mag}\n"
                 f"residual.2.max_abs = 0.000000e+00\n"
                 f"residual.3.max_abs = 0.000000e+00\n"
                 f"residual.4.max_abs = 0.000000e+00\n")
        assert out.startswith(block)
        assert ("checkpoint" in out) == (passed == "true")


class TestVerifyMap:
    def test_paper_map_passes(self, capsys, gen_file):
        path = gen_file(
            "mu1 = -1/2*exp(-2*alpha*t)\nmu2 = x*exp(-alpha*t)\n", "paper.map")
        code, out, _ = run(capsys, "verify-map", prob("langevin-affine.prob"),
                           "--map", path)
        assert code == 0
        assert "pass = true" in out

    def test_wrong_map_exit_5(self, capsys, gen_file):
        path = gen_file("mu1 = -1/2*exp(-2*alpha*t)\nmu2 = x\n", "wrong.map")
        code, out, _ = run(capsys, "verify-map", prob("langevin-affine.prob"),
                           "--map", path)
        assert code == 5
        assert "pass = false" in out

    def test_explicit_target_problem(self, capsys, gen_file):
        path = gen_file(
            "mu1 = -1/2*exp(-2*alpha*t)\nmu2 = x*exp(-alpha*t)\n", "paper.map")
        code, out, _ = run(capsys, "verify-map", prob("langevin-affine.prob"),
                           prob("brownian.prob"), "--map", path)
        assert code == 0

    def test_generator_key_in_map_exit_2(self, capsys, gen_file):
        path = gen_file("mu1 = t\nmu2 = x\ntau = 1\n", "extra.map")
        code, out, err = run(capsys, "verify-map", prob("langevin-affine.prob"),
                             "--map", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: unknown key 'tau' (expected mu1, mu2)\n"

    def test_repeated_key_exit_2(self, capsys, gen_file):
        path = gen_file("mu1 = t\nmu2 = x*exp(-alpha*t)\n\nmu1 = 2*t\n", "twice.map")
        code, out, err = run(capsys, "verify-map", prob("langevin-affine.prob"),
                             "--map", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}:4: duplicate mu1\n"

    def test_constant_map_is_no_crash(self, capsys, gen_file):
        # a constant mu2 used to end in a numpy AxisError traceback; every
        # mapped path sits at 1, so the check fails
        path = gen_file("mu1 = t\nmu2 = 1\n", "constant.map")
        code, out, err = run(capsys, "--paths", "100", "verify-map",
                             prob("brownian.prob"), prob("brownian.prob"),
                             "--map", path)
        assert (code, err) == (5, "")
        assert "pass = false" in out

    def test_singular_initial_state_exit_5(self, capsys, gen_file):
        # brownian starts at x0 = 0, where mu2 = 1/x is singular
        path = gen_file("mu1 = t\nmu2 = 1/x\n", "singular.map")
        code, out, err = run(capsys, "--paths", "100", "verify-map",
                             prob("brownian.prob"), prob("brownian.prob"),
                             "--map", path)
        assert code == 5 and out == ""
        assert err == "error: initial state inf is not finite\n"

    AFFINE_MAP = "mu1 = -exp(-2*alpha*t)/(2*alpha)\nmu2 = x*exp(-alpha*t)\n"

    def brownian_with_alpha(self, tmp_path, value):
        path = tmp_path / f"alpha{value}.prob"
        path.write_text(f"[declare]\nparam alpha = {value}\n"
                        + open(prob("brownian.prob")).read())
        return str(path)

    def test_clashing_parameter_exit_2(self, capsys, gen_file, tmp_path):
        # the source binds alpha = 1.0; the map used to be evaluated at the
        # target's alpha = 3.0, and the check failed at every checkpoint
        path = gen_file(self.AFFINE_MAP, "aff.map")
        tgt = self.brownian_with_alpha(tmp_path, "3.0")
        code, out, err = run(capsys, "--paths", "300", "verify-map",
                             prob("langevin-affine.prob"), tgt, "--map", path)
        assert (code, out) == (2, "")
        assert err == ("error: parameter alpha is 1.0 in the source and 3.0 "
                       "in the target\n")

    def test_equal_parameter_passes(self, capsys, gen_file, tmp_path):
        path = gen_file(self.AFFINE_MAP, "aff.map")
        tgt = self.brownian_with_alpha(tmp_path, "1.0")
        code, out, _ = run(capsys, "--paths", "300", "verify-map",
                           prob("langevin-affine.prob"), tgt, "--map", path)
        assert code == 0 and "pass = true" in out

    def test_unbound_target_parameter_exit_2_before_simulation(
            self, capsys, gen_file, tmp_path, monkeypatch):
        import sdesym.numeric as numeric

        monkeypatch.setattr(numeric, "_simulate_uniform",
                            lambda *a: pytest.fail("the source was simulated"))
        tgt = tmp_path / "tgt.prob"
        tgt.write_text("[declare]\nparam c\n[sde]\ndrift = c\ndiffusion = 1\n")
        path = gen_file(self.AFFINE_MAP, "paper.map")
        code, out, err = run(capsys, "--paths", "100", "verify-map",
                             prob("langevin-affine.prob"), str(tgt), "--map", path)
        assert (code, out) == (2, "")
        assert err == f"error: {tgt}: parameter c requires a value\n"

    def test_missing_target_exit_2(self, capsys, gen_file, tmp_path):
        src = tmp_path / "notarget.prob"
        src.write_text(
            "[declare]\nvar t\nvar x\n\n[sde]\ndrift = 0\ndiffusion = 1\n")
        path = gen_file("mu1 = t\nmu2 = x\n", "id.map")
        code, _, err = run(capsys, "verify-map", str(src), "--map", path)
        assert code == 2
        assert "target" in err


NOT_MATCHED = ("error: no change of basis matches the commutator tables "
               "(algebras may be non-isomorphic)\n")
ABELIAN = os.path.join(GOLDEN, "brownian-abelian.prob")
GOLDEN_RUNS = [
    *[(f"symmetries-{name}-{mode}", ("--mode", mode, "symmetries", prob(f"{name}.prob")), 0, "")
      for name in SHIPPED for mode in ("classical", "stochastic")],
    *[(f"brackets-{name}", ("--mode", "classical", "brackets", prob(f"{name}.prob")), 0, "")
      for name in SHIPPED],
    ("match-langevin-affine-brownian",
     ("match", prob("langevin-affine.prob"), prob("brownian.prob")), 0, ""),
    ("match-axinv-brownian", ("match", prob("axinv.prob"), prob("brownian.prob")), 4,
     "error: algebra dimensions differ; no match attempted\n"),
    ("find-map-axinv-brownian", ("find-map", prob("axinv.prob"), prob("brownian.prob")), 4,
     "error: algebra dimensions differ (2 vs 3); no map attempted\n"),
    # equal dimensions, but [g,g] is 1-dimensional against 0: no match
    *[(f"{command}-axinv-brownian-abelian{suffix}",
       (*out, command, prob("axinv.prob"), ABELIAN), 4, NOT_MATCHED)
      for command in ("match", "find-map")
      for suffix, out in (("", ()), ("-kv", ("--output", "kv")))],
    # stage-1 directions that do not decouple: each goes through the q-device;
    # brownian-poly4 is the largest system the symbolic benchmark solves
    *[(f"symmetries-{name}-{mode}{suffix}",
       (*out, "--mode", mode, "symmetries", os.path.join(GOLDEN, f"{name}.prob")), 0, "")
      for name, mode in (("xlogx", "stochastic"), ("ode-x2", "det-ode"),
                         ("brownian-poly4", "stochastic"))
      for suffix, out in (("", ()), ("-kv", ("--output", "kv")))],
]


@pytest.mark.parametrize("name, argv, code, err", GOLDEN_RUNS,
                         ids=[r[0] for r in GOLDEN_RUNS])
def test_golden_text(capsys, name, argv, code, err):
    """Full output on the shipped problems with their default seeds."""
    with open(os.path.join(GOLDEN, f"{name}.txt")) as fh:
        expected = fh.read()
    assert run(capsys, *argv) == (code, expected, err)


def test_find_map_kv_golden(capsys):
    # the match and the map; the KS lines depend on the sampled paths
    with open(os.path.join(GOLDEN, "find-map-langevin-affine-brownian-kv.txt")) as fh:
        expected = fh.read()
    code, out, err = run(capsys, "--output", "kv", "find-map",
                         prob("langevin-affine.prob"), prob("brownian.prob"))
    assert (code, err) == (0, "")
    assert "".join(line for line in out.splitlines(keepends=True)
                   if line.startswith(("match.", "map."))) == expected


BAD_OPTIONS = [
    ("--points", "0"), ("--points", "-1"), ("--paths", "0"), ("--paths", "-3"),
    ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--seed", "-1"),
    ("--window", "a,b,c,d"), ("--window", "0,1,2"),
    ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
]


@pytest.mark.parametrize("option, value", BAD_OPTIONS,
                         ids=[f"{o}={v}" for o, v in BAD_OPTIONS])
def test_bad_option_exits_2(option, value, gen_file):
    # a bad option is a usage error (exit 2), never a silent fallback to
    # the problem's value or a traceback
    command = ["symmetries", prob("brownian.prob")]
    if option in ("--paths", "--eps"):
        command = ["verify-symmetry", prob("brownian.prob"),
                   "--generator", gen_file("phi = 1\n")]
    # --eps is an option of the verify-symmetry subcommand, the rest are global
    argv = [*command, option, value] if option == "--eps" else [option, value, *command]
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, "-m", "sdesym.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and option in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("name, old, new, reason", [
    # a second tau line used to replace the first: basis.n = 3, exit 0
    ("brownian.prob", "phi = poly(x;1)\n", "phi = poly(x;1)\ntau = poly(t;0)\n",
     "13: duplicate tau"),
    # nan used to reach the solver and fail in sampling, naming no parameter
    ("langevin.prob", "param a = 1.0", "param a = nan",
     "5: param a must be a finite number, got 'nan'"),
])
def test_shipped_problem_edit_refused(capsys, tmp_path, name, old, new, reason):
    path = tmp_path / name
    path.write_text(open(prob(name), encoding="utf-8").read().replace(old, new, 1))
    code, out, err = run(capsys, "symmetries", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:{reason}\n"


def test_closed_stdout_ends_quietly():
    # the reader goes away before the command prints: exit 1, no traceback
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.Popen([sys.executable, "-m", "sdesym.cli", "symmetries",
                             prob("brownian.prob")], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_cold_import_loads_no_scipy():
    # scipy.stats alone took most of a cold command's start-up; the runtime
    # needs numpy only, and scipy stays a test oracle
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, sdesym.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# bad values for every key of the settings table, among them each value a
# problem file once let through silently or into a traceback
BAD_SETTINGS = [
    ("window", "1, 1, 0.5, 2"), ("window", "0.1, 2, 2, 0.5"),
    ("window", "0, 1, 0.5"), ("window", "0, inf, 0.5, 2"),
    ("seed", "3.9"), ("seed", "-1"), ("seed", "2026.0"),
    ("tol", "-1"), ("tol", "0"), ("tol", "nan"),
    ("points", "0"), ("points", "-1"), ("points", "40.7"),
    ("paths", "2.5"), ("paths", "0"),
    ("h", "0"), ("h", "-0.001"), ("h", "inf"),
    ("steps", "0"), ("steps", "1e3"),
    ("x0", "nan"), ("x0", "inf"),
    ("eps", "0"), ("eps", "nan"),
    ("pin", "0, 1, 5"), ("pin", "0, 1, nan, 7"),
]
FLAGS = ("window", "seed", "tol", "points", "paths", "eps")
# a good value per flag, for the same command given either way
GOOD_SETTINGS = [("window", "0.2, 1.5, 0.5, 2"), ("seed", "7"), ("tol", "1e-8"),
                 ("points", "48"), ("paths", "300"), ("eps", "-0.3")]


def settings_command(key, problem, gen_file, value=None):
    """argv of a command that reads setting `key` from `problem` (with
    brownian.prob as the target), with `value` as the flag when not None."""
    flag = [f"--{key}", value] if value is not None else []
    if key in ("paths", "h", "steps", "x0"):
        return [*flag, "verify-map", problem, prob("brownian.prob"),
                "--map", gen_file("mu1 = t\nmu2 = x\n", "id.map")]
    if key == "eps":
        return ["--paths", "300", "verify-symmetry", problem,
                "--generator", gen_file("tau = 2*t\nphi = x\n"), *flag]
    if key == "pin":
        return [*flag, "find-map", problem, prob("brownian.prob")]
    return [*flag, "symmetries", problem]


def with_setting(tmp_path, key, value):
    """brownian.prob with its `key` line, if any, moved to the end of its
    [numeric] section as `key = value` (a repeated key is refused); returns
    the path and the line number of the setting."""
    lines = [ln for ln in open(prob("brownian.prob")).read().splitlines()
             if ln.partition("=")[0].strip() != key]
    path = tmp_path / "setting.prob"
    path.write_text("\n".join(lines) + f"\n{key} = {value}\n")
    return str(path), len(lines) + 1


@pytest.mark.parametrize("key, value", BAD_SETTINGS,
                         ids=[f"{k}={v}" for k, v in BAD_SETTINGS])
def test_bad_setting_in_file_exits_2(capsys, tmp_path, gen_file, key, value):
    path, line = with_setting(tmp_path, key, value)
    code, out, err = run(capsys, *settings_command(key, path, gen_file))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:{line}: {key} must be ")
    assert err.endswith(f", got {value!r}\n")


def test_every_setting_is_covered():
    assert {k for k, _ in BAD_SETTINGS} == set(SETTINGS)
    assert {k for k, _ in GOOD_SETTINGS} == set(FLAGS)


BAD_FLAGS = [(k, v) for k, v in BAD_SETTINGS if k in FLAGS]


@pytest.mark.parametrize("key, value", BAD_FLAGS,
                         ids=[f"--{k}={v}" for k, v in BAD_FLAGS])
def test_bad_setting_as_flag_exits_2(capsys, gen_file, key, value):
    command = settings_command(key, prob("brownian.prob"), gen_file, value)
    code, out, err = run(capsys, *command)
    assert code == 2 and out == ""
    assert err.startswith(f"error: --{key} must be ")
    assert err.endswith(f", got {value!r}\n")


@pytest.mark.parametrize("key, value", GOOD_SETTINGS,
                         ids=[k for k, _ in GOOD_SETTINGS])
def test_setting_in_file_equals_flag(capsys, tmp_path, gen_file, key, value):
    path, _ = with_setting(tmp_path, key, value)
    flagged = settings_command(key, prob("brownian.prob"), gen_file, value)
    from_file = run(capsys, *settings_command(key, path, gen_file))
    from_flag = run(capsys, *flagged)
    assert from_file[0] in (0, 5) and from_file == from_flag
    # both ways set the same value, and it is not the default
    from_args = _load(prob("brownian.prob"), build_parser().parse_args(flagged))
    assert (from_args.numeric[key] == load_problem(path).numeric[key]
            != SETTINGS[key].default)
