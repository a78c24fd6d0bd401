"""Benchmark workloads and the answer check for each solve.

A workload is a list of seed blocks; a block is a list of jobs, each a CLI
command name and the RunConfig it runs, derived from the benchmark's seed
argument.  One timed pass runs one block, and passes cycle through the
blocks.  Seed s uses the sample seeds k*s .. k*s + k - 1 (k solves per
configuration and seed argument), so seed 0 reproduces the acceptance-test
seeds and different seed arguments share no samples.  Why each workload
exists is recorded in README.md.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from grsaa import problems
from grsaa.cli import RunConfig
from grsaa.newton import NewtonFailure

SVI_L_VALUES = "1,1000,2500,5500,8000,10000"


# sin-dims: SIN_DIMS_BLOCKS blocks of SIN_DIMS_BLOCK solves at n = 8.  Path
# lengths are bimodal across sample seeds; a rare long path moves one block,
# which the medians over blocks pass over (README.md).
SIN_DIMS_BLOCKS, SIN_DIMS_BLOCK = 7, 5


def blocks(workload: str, seed: int) -> list[list[tuple[str, RunConfig]]]:
    if workload == "market":
        base = RunConfig(problem="market", n=3, N=10 ** 4, L=100)
        return [[("solve", replace(base, seed=5 * seed + k)) for k in range(5)]]
    if workload == "sin-small":
        base = RunConfig(problem="sin", n=3, N=100, L=4)
        return [[("solve", replace(base, seed=100 * seed + k)) for k in range(100)]]
    if workload == "sin-dims":
        base = RunConfig(problem="sin", n=8, N=10 ** 4, L=20)
        first = SIN_DIMS_BLOCKS * SIN_DIMS_BLOCK * seed
        return [[("solve", replace(base, seed=first + SIN_DIMS_BLOCK * b + k))
                 for k in range(SIN_DIMS_BLOCK)] for b in range(SIN_DIMS_BLOCKS)]
    if workload == "svi-sweep":
        return [[("sweep-l", RunConfig(problem="svi", n=1, N=10 ** 4,
                                       L_values=SVI_L_VALUES, reps=3,
                                       seed=3 * seed))]]
    raise ValueError(f"unknown workload {workload!r}")


def largest_solves(job_list: list[tuple[str, RunConfig]]) -> list[RunConfig]:
    """Single-solve configs with the largest N * n^2 (the size of the
    per-sample Jacobian tensor), in job order; a sweep is split into its
    solves."""
    solves = []
    for command, cfg in job_list:
        if command == "sweep-l":
            solves += [replace(cfg, L=int(L), seed=cfg.seed + rep, L_values="")
                       for L in cfg.L_values.split(",") for rep in range(cfg.reps)]
        else:
            solves.append(cfg)
    size = max(c.N * c.n * c.n for c in solves)
    return [c for c in solves if c.N * c.n * c.n == size]


# Tolerances follow the acceptance criteria: market criterion 1, sin
# criterion 2.  The svi natural-map tolerance allows for the t_end = 1e-8
# smoothing of the complementarity transform.
MARKET_STATIONARITY_TOL = 1e-8
MARKET_PRICE_TOL = 0.015
SIN_SAA_TOL = 1e-10
SIN_ORACLE_DIST = 0.5
SVI_NATURAL_MAP_TOL = 1e-6


def check_answer(inst, hm, result) -> tuple[bool, str]:
    """Independent check that x* solves the stated full-sample problem;
    returns (passed, description)."""
    x = np.asarray(result.x_star, dtype=float)
    ok, detail = _check(inst, hm, result, x)
    return ok, f"x*={np.array2string(x, precision=6)} {detail}"


def _check(inst, hm, result, x) -> tuple[bool, str]:
    if inst.name == "market":
        v = problems.market_verify(x, hm.blended, tol=MARKET_STATIONARITY_TOL)
        err = float(np.linalg.norm(x - problems.MARKET_SOLUTION, np.inf))
        ok = (v["feasible"] and v["multipliers_nonnegative"]
              and v["stationarity_residual"] <= MARKET_STATIONARITY_TOL
              and err <= MARKET_PRICE_TOL)
        return ok, (f"stationarity={v['stationarity_residual']:.3g} "
                    f"price_err={err:.3g}")
    if inst.name == "sin":
        try:
            x_ref = problems.oracle_solve(inst, x)
        except NewtonFailure as exc:
            return False, f"oracle did not converge: {exc}"
        dist = float(np.linalg.norm(x - x_ref))
        ok = result.saa_residual <= SIN_SAA_TOL and dist <= SIN_ORACLE_DIST
        return ok, f"saa_residual={result.saa_residual:.3g} oracle_dist={dist:.3g}"
    if inst.name == "svi":
        sys_ = inst.system
        f_n = np.asarray(sys_.residual(x, hm.blended.samples.samples)).mean(axis=0)
        r = float(np.linalg.norm(x - np.clip(x - f_n, sys_.box_lo, sys_.box_hi),
                                 np.inf))
        return r <= SVI_NATURAL_MAP_TOL, f"natural_map_residual={r:.3g}"
    raise ValueError(f"no answer check for problem {inst.name!r}")
