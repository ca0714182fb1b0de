"""Command-line surface: commands, exit codes, golden stability."""

import os

import pytest

from sdesym.cli import main

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

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.prob"
        path.write_text("[sde]\ndrift = )(\ndiffusion = 1\n")
        code, _, err = run(capsys, "symmetries", str(path))
        assert code == 2

    def test_solver_failure_exit_3(self, capsys, tmp_path):
        # linearly dependent dictionary entries make the solve ill-posed
        path = tmp_path / "dependent.prob"
        path.write_text(
            "[declare]\nvar t\nvar x\n\n[sde]\ndrift = 0\ndiffusion = 1\n\n"
            "[ansatz]\ntau = poly(t;1) + 2*t\nphi = poly(x;1)\n")
        code, _, err = run(capsys, "symmetries", str(path))
        assert code == 3
        assert "dependent" in err

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


class TestMatch:
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

    def test_bogus_candidate_exit_5(self, capsys, gen_file):
        path = gen_file("tau = 0\nphi = t\nphitilde = 0\n")
        code, out, _ = run(capsys, "verify-symmetry", prob("brownian.prob"),
                           "--generator", path)
        assert code == 5
        assert "residual.pass = false" in out


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

    def test_missing_target_exit_2(self, capsys, gen_file, tmp_path):
        src = tmp_path / "notarget.prob"
        src.write_text(
            "[declare]\nvar t\nvar x\n\n[sde]\ndrift = 0\ndiffusion = 1\n")
        path = gen_file("mu1 = t\nmu2 = x\n", "id.map")
        code, _, err = run(capsys, "verify-map", str(src), "--map", path)
        assert code == 2
        assert "target" in err


GOLDEN_RUNS = [
    *[(f"symmetries-{name}-{mode}", ("--mode", mode, "symmetries", prob(f"{name}.prob")), 0)
      for name in SHIPPED for mode in ("classical", "stochastic")],
    *[(f"brackets-{name}", ("--mode", "classical", "brackets", prob(f"{name}.prob")), 0)
      for name in SHIPPED],
    ("match-langevin-affine-brownian",
     ("match", prob("langevin-affine.prob"), prob("brownian.prob")), 0),
    ("match-axinv-brownian", ("match", prob("axinv.prob"), prob("brownian.prob")), 4),
]


@pytest.mark.parametrize("name, argv, code", GOLDEN_RUNS,
                         ids=[r[0] for r in GOLDEN_RUNS])
def test_golden_text(capsys, name, argv, code):
    """Full text output on the shipped problems with their default seeds."""
    with open(os.path.join(GOLDEN, f"{name}.txt")) as fh:
        expected = fh.read()
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    assert out == expected
