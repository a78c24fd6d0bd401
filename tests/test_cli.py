import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from grsaa import cli
from grsaa.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, RunConfig, build_run, main
from grsaa.tracer import trace

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


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


def test_summary_names_the_numeric_builds(tmp_path, capsys):
    assert run(solve_args(tmp_path)) == EXIT_OK
    versions = json.loads((tmp_path / "run" / "summary.json").read_text())["versions"]
    assert set(versions) == {"numpy", "scipy", "numpy_blas", "scipy_blas"}
    assert all(isinstance(v, str) and v for v in versions.values())
    assert versions["numpy"] == np.__version__
    assert versions["scipy"] == scipy.__version__
    capsys.readouterr()


def test_solve_is_bit_reproducible(tmp_path):
    assert run(solve_args(tmp_path / "a")) == EXIT_OK
    assert run(solve_args(tmp_path / "b")) == EXIT_OK
    pa = (tmp_path / "a" / "run" / "path.csv").read_text()
    pb = (tmp_path / "b" / "run" / "path.csv").read_text()
    assert pa == pb


def test_config_resolved_replays_the_run(tmp_path, capsys):
    # every key written to config.resolved loads back with the same meaning
    assert run(solve_args(tmp_path)) == EXIT_OK
    first = tmp_path / "run"
    again = tmp_path / "replay"
    assert run(["solve", "--config", str(first / "config.resolved"),
                "--out", str(again)]) == EXIT_OK
    assert (first / "path.csv").read_bytes() == (again / "path.csv").read_bytes()
    capsys.readouterr()


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


def test_experiment_configs_load_and_build():
    paths = sorted(EXPERIMENTS.glob("*.cfg"))
    assert paths
    for path in paths:
        cfg = RunConfig.from_kv(path.read_text())
        inst, hm = build_run(cfg)
        assert inst.name == cfg.problem, path.name


def test_invalid_config_key_is_exit_3(tmp_path, capsys):
    # a misspelt key, step-control, partition and schedule keys that older
    # runs wrote, and a key set twice (the later value would win silently)
    for i, (text, message) in enumerate((
            ("problme=sin\n", "unknown key 'problme'"),
            ("h0=0.01\n", "unknown key 'h0'"),
            ("partition=linear\n", "unknown key 'partition'"),
            ("tau1=500\n", "unknown key 'tau1'"),
            ("tau0=7000\n", "unknown key 'tau0'"),
            ("sched_seed=1\n", "unknown key 'sched_seed'"),
            ("N=100\nL=2\n# later\nN=10000\n",
             "line 4: key 'N' already set on line 1"))):
        bad = tmp_path / f"bad{i}.cfg"
        bad.write_text(text)
        out = tmp_path / f"out{i}"
        code = run(["solve", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()  # no artifacts on config failure
        err = capsys.readouterr().err
        assert "config error" in err and message in err


def test_config_line_without_equals_is_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem=sin\n# a comment\nN 300\n")
    out = tmp_path / "out"
    code = run(["solve", "--config", str(bad), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "line 3: expected key=value, got 'N 300'" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--bogus", "1"], ["--N", "abc"],
                                   ["--h0", "0.5"], ["--partition", "lineer"],
                                   ["--tau1", "500"], ["--tau0", "7000"],
                                   ["--sched-seed", "1"]],
                         ids=["unknown-flag", "ill-typed", "removed-flag",
                              "removed-partition-flag", "removed-tau1-flag",
                              "removed-tau0-flag", "removed-sched-seed-flag"])
def test_bad_flag_is_exit_3(tmp_path, capsys, extra):
    code = run(solve_args(tmp_path, extra))
    assert code == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["solve", "--help"]) == EXIT_OK
    assert "--config" in capsys.readouterr().out


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


@pytest.mark.parametrize("extra, word", [
    (["--alpha", "1,2,3"], "alpha"),  # one entry too many for n = 2
    (["--alpha", ","], "alpha"),
    (["--alpha", "nan,0"], "alpha"),
    (["--problem", "market", "--n", "5"], "market"),  # market has n = 3
    (["--n", "0"], "n=0"),
    (["--seed", "-1"], "seed=-1"),
    (["--schedule", "random-descending"], "random-descending"),  # removed kind
], ids=["alpha-length", "alpha-empty-entry", "alpha-nonfinite", "market-n",
        "sin-n-0", "negative-seed", "removed-schedule-kind"])
def test_setting_that_cannot_run_as_given_is_exit_3(tmp_path, capsys, extra, word):
    # refused, not replaced: config.resolved would record a run that did not happen
    code = run(solve_args(tmp_path, extra))
    assert code == EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    assert word in capsys.readouterr().err


def test_alpha_bends_the_constrained_path(tmp_path, capsys):
    # alpha reaches the KKT map: same equilibrium, a different path
    runs = {}
    for label, extra in (("base", []), ("bent", ["--alpha", "5,-5,5"])):
        out = tmp_path / label
        code = run(["solve", "--problem", "market", "--N", "500", "--L", "5",
                    "--out", str(out), *extra])
        assert code == EXIT_OK
        runs[label] = json.loads((out / "summary.json").read_text())
    assert np.allclose(runs["base"]["x_star"], runs["bent"]["x_star"],
                       rtol=0, atol=1e-8)
    assert (runs["base"]["counters"]["sample_evals"]
            != runs["bent"]["counters"]["sample_evals"])
    capsys.readouterr()


def test_sweep_degenerate_ratio_to_l1_is_one(tmp_path, capsys):
    # L = 1 against itself on the same samples: the ratio column reads 1
    out = tmp_path / "sweep"
    code = run(["sweep-l", "--problem", "sin", "--n", "2", "--N", "200",
                "--L-values", "1,1", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    col = lines[0].split(",").index("ratio_to_L1")
    assert [float(l.split(",")[col]) for l in lines[1:]] == [1.0, 1.0]
    summary = json.loads((out / "summary.json").read_text())
    assert [r["ratio_to_L1"] for r in summary["rows"]] == [1.0, 1.0]
    capsys.readouterr()


def test_sweep_l_artifacts(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run(["sweep-l", "--problem", "sin", "--n", "2", "--N", "200",
                "--L-values", "1,4,8", "--reps", "2", "--seed", "1",
                "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("L,mean_sample_evals")
    assert "ratio_to_L1" in lines[0]  # L = 1 is among the swept values
    assert len(lines) == 4
    assert sum(int(l.split(",")[-1]) for l in lines[1:]) == 1  # one minimum
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_L"] in (1, 4, 8)
    capsys.readouterr()


@pytest.mark.parametrize("L_values, word", [("1,,3", "L_values"),
                                             ("2,500", "L=500")],
                         ids=["empty-entry", "L-above-N"])
def test_sweep_l_refuses_every_bad_l_before_tracing(tmp_path, capsys, monkeypatch,
                                                   L_values, word):
    def no_trace(*args, **kwargs):
        raise AssertionError("a path was traced before the L values were checked")

    monkeypatch.setattr("grsaa.cli.trace", no_trace)
    out = tmp_path / "o"
    code = run(["sweep-l", "--problem", "sin", "--n", "2", "--N", "100",
                "--L-values", L_values, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert word in capsys.readouterr().err


def test_sweep_l_reports_the_first_failure(tmp_path, capsys, monkeypatch):
    # the second and third solves fail, with different statuses: the
    # summary names the first of them and the run exits 2
    statuses = iter(["converged", "stalled", "max_steps", "converged"])

    def scripted_trace(hm):
        return dataclasses.replace(trace(hm), status=next(statuses))

    monkeypatch.setattr("grsaa.cli.trace", scripted_trace)
    out = tmp_path / "o"
    code = run(["sweep-l", "--problem", "sin", "--n", "2", "--N", "100",
                "--L-values", "1,2", "--reps", "2", "--out", str(out)])
    assert code == EXIT_SOLVER
    assert json.loads((out / "summary.json").read_text())["status"] == "stalled"
    capsys.readouterr()


def test_sweep_l_requires_l_values(tmp_path, capsys):
    code = run(["sweep-l", "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "L_values" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_sweep_l_without_repetitions_is_exit_3(tmp_path, capsys, reps):
    out = tmp_path / "o"
    code = run(["sweep-l", "--problem", "sin", "--n", "2", "--N", "100",
                "--L-values", "1,2", "--reps", reps, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "reps" in capsys.readouterr().err


def test_diagnose_coercivity(tmp_path, capsys):
    out = tmp_path / "diag"
    code = run(["diagnose-coercivity", "--problem", "sin", "--n", "2",
                "--N", "50", "--L", "2", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["min_inner_product"] > 0.0
    assert not summary["warning"]
    assert summary["boundary_points"] == 4 * 256
    assert len(summary["argmin_x"]) == 2
    assert summary["config"]["n"] == 2
    capsys.readouterr()


def test_diagnose_coercivity_in_high_dimension_exits_0(tmp_path, capsys):
    # the face sample has the same size on every face for every n, so there
    # is no dimension limit
    out = tmp_path / "diag"
    code = run(["diagnose-coercivity", "--problem", "sin", "--n", "14",
                "--N", "50", "--L", "2", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["boundary_points"] == 28 * 256
    assert not summary["warning"]
    capsys.readouterr()


@pytest.mark.parametrize("problem, n", [("market", "3"), ("svi", "2")])
def test_diagnose_coercivity_refuses_constrained_problems(tmp_path, capsys,
                                                          problem, n):
    # the check tests the raw kernel on the box; a constrained map is
    # confined by block 2 instead, so a verdict would describe another map
    out = tmp_path / "diag"
    code = run(["diagnose-coercivity", "--problem", problem, "--n", n,
                "--N", "50", "--L", "2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err and "B x <= b" in err and "confines x" in err


def test_path_back_at_its_start_level_exits_2(tmp_path, capsys, monkeypatch):
    # the status is the tracer's (tests/test_tracer.py traces a path that
    # climbs back to t = 1); here a trace that ends with it must give exit 2
    def back_at_start(hm, cfg=None):
        result = trace(hm, cfg)
        result.status = "returned-to-start"
        return result

    monkeypatch.setattr(cli, "trace", back_at_start)
    out = tmp_path / "run"
    code = run(["solve", "--problem", "sin", "--n", "1", "--N", "20",
                "--L", "8", "--out", str(out)])
    assert code == EXIT_SOLVER
    assert json.loads((out / "summary.json").read_text())["status"] == "returned-to-start"
    assert "returned-to-start" in capsys.readouterr().out
