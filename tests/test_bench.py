"""The benchmark harness in bench/ reaches into the package by name (CLI
functions, system fields, layer methods); this runs it end to end so that a
renamed or removed target shows up as a failure here."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grsaa import problems as P
from grsaa.cli import RunConfig, build_run
from grsaa.tracer import trace

ROOT = Path(__file__).resolve().parent.parent

# hooks whose targets the package no longer has: the damped Newton routine
# and the separate complementarity transform
DEAD_HOOKS = {"grsaa.tracer.damped_newton", "grsaa.homotopy.transform"}
# the one layer those hooks leave without a span; every other layer, saa and
# homotopy included, must still be reached through its public methods
DEAD_LAYERS = {"newton"}


# sin-small reaches the unconstrained map, market the constrained assembly
# and its transform layer, both with their answer checks
@pytest.mark.parametrize("workload", ["sin-small", "market"])
def test_bench_runs_against_the_package(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] is True and last["failed"] == 0, lines[-1]
    missing = [ast.literal_eval(line.split("missing hooks: ", 1)[1])
               for line in lines if "missing hooks: " in line]
    assert all(set(m) <= DEAD_HOOKS for m in missing), missing
    # "absent layers (reported as 0): [...]; missing hooks: [...]"
    absent = [ast.literal_eval(line.split(": ", 1)[1].split("; missing hooks", 1)[0])
              for line in lines if line.startswith("absent layers ")]
    assert all(set(a) <= DEAD_LAYERS for a in absent), absent


def test_kernel_calls_keep_what_the_layer_hooks_read(monkeypatch):
    # bench/layers.py shadows the system fields `residual` and `jacobian` on
    # the object, iterating vars(system), where a method would be missing
    # without an error (the per-layer metrics take those names), and counts a
    # call's rows as len(args[1]); bench/run.py times build_run as set-up, so
    # the table is made on the first pass, once per map; bench/workloads.py
    # checks svi answers with a raw-sample residual call
    made = []
    for name in ("_trig_table", "_market_table"):
        def counted(xis, fn=getattr(P, name)):
            made.append(len(xis))
            return fn(xis)
        monkeypatch.setattr(P, name, counted)
    for cfg in (RunConfig(problem="sin", n=3, N=100, L=4),
                RunConfig(problem="market", n=3, N=1000, L=10),
                RunConfig(problem="svi", n=2, N=1000, L=10)):
        made.clear()
        _, hm = build_run(cfg)
        assert made == [], cfg.problem
        bm = hm.blended
        assert {"residual", "jacobian"} <= set(vars(bm.system)), cfg.problem
        kernels = {name: getattr(bm.system, name) for name in ("residual", "jacobian")}
        rows = []
        for name, fn in kernels.items():
            def call(*args, fn=fn):
                q = len(args[1])
                assert args[1].shape == (q, 1) and args[-1].shape[1] == q
                rows.append(q)
                return fn(*args)
            object.__setattr__(bm.system, name, call)
        result = trace(hm)
        assert made == [cfg.N] and max(rows) == cfg.N, cfg.problem
        raw = kernels["residual"](result.x_star, bm.samples.samples)
        assert raw.shape == (cfg.N, cfg.n)
        assert np.array_equal(raw.mean(axis=0), bm.sample_average(bm.L, result.x_star))
