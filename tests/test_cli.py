import json

import pytest

from grsaa.cli import EXIT_CONFIG, EXIT_OK, RunConfig, main


def run(args):
    return main(args)


def solve_args(tmp_path, extra=()):
    return ["solve", "--problem", "sin", "--n", "2", "--N", "300",
            "--L", "3", "--seed", "5", "--out", str(tmp_path / "run"),
            *extra]


def test_solve_writes_artifacts_and_exits_zero(tmp_path, capsys):
    assert run(solve_args(tmp_path)) == EXIT_OK
    out = tmp_path / "run"
    assert (out / "config.resolved").exists()
    assert (out / "path.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["saa_residual"] <= 1e-10
    assert summary["counters"]["sample_evals"] > 0
    assert summary["counters"]["jac_evals"] > 0
    assert "converged" in capsys.readouterr().out


def test_solve_is_bit_reproducible(tmp_path):
    assert run(solve_args(tmp_path / "a")) == EXIT_OK
    assert run(solve_args(tmp_path / "b")) == EXIT_OK
    pa = (tmp_path / "a" / "run" / "path.csv").read_text()
    pb = (tmp_path / "b" / "run" / "path.csv").read_text()
    assert pa == pb


def test_config_file_roundtrip_and_override(tmp_path):
    cfg = RunConfig(problem="svi", n=2, N=500, L=10, seed=42)
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_kv())
    back = RunConfig.from_kv(path.read_text())
    assert back == cfg
    # comments and blank lines are tolerated
    path.write_text("# comment\n\nproblem = sin   # trailing\nn = 4\n")
    partial = RunConfig.from_kv(path.read_text())
    assert partial.problem == "sin" and partial.n == 4
    assert partial.N == RunConfig().N


def test_invalid_config_key_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problme=sin\n")
    out = tmp_path / "out"
    code = run(["solve", "--config", str(bad), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()  # no artifacts on config failure
    assert "config error" in capsys.readouterr().err


def test_invalid_l_is_exit_3(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["solve", "--N", "10", "--L", "50", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    capsys.readouterr()


def test_unknown_problem_is_exit_3(tmp_path, capsys):
    code = run(["solve", "--problem", "heat", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    capsys.readouterr()


def test_compare_degenerate_ratio_is_one(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run(["compare", "--problem", "sin", "--n", "2", "--N", "200",
                "--L", "1", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sample_evals_ratio"] == pytest.approx(1.0)
    capsys.readouterr()


def test_sweep_l_artifacts(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run(["sweep-l", "--problem", "sin", "--n", "2", "--N", "200",
                "--L-values", "1,4,8", "--reps", "2", "--seed", "1",
                "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("L,mean_sample_evals")
    assert len(lines) == 4
    assert sum(int(l.split(",")[-1]) for l in lines[1:]) == 1  # one minimum
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_L"] in (1, 4, 8)
    capsys.readouterr()


def test_sweep_l_requires_l_values(tmp_path, capsys):
    code = run(["sweep-l", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    capsys.readouterr()


def test_diagnose_coercivity(tmp_path, capsys):
    out = tmp_path / "diag"
    code = run(["diagnose-coercivity", "--problem", "sin", "--n", "2",
                "--N", "50", "--L", "2", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert "min_inner_product" in summary
    assert not summary["warning"]
    capsys.readouterr()


def test_diagnose_coercivity_over_budget_is_exit_3(tmp_path, capsys, monkeypatch):
    # n = 14 needs 28 * 2^13 face points even at density 2: refused before
    # any grid is built
    def no_grid(*args, **kwargs):
        raise AssertionError("boundary grid was enumerated")

    monkeypatch.setattr("numpy.meshgrid", no_grid)
    code = run(["diagnose-coercivity", "--problem", "sin", "--n", "14",
                "--N", "50", "--L", "2", "--out", str(tmp_path / "diag")])
    assert code == EXIT_CONFIG
    assert "budget" in capsys.readouterr().err
