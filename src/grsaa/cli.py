"""Experiment runner: single solves, L-sweeps, GRSAA-vs-standard comparisons
and the coercivity diagnostic.

Configs are flat key=value text files; command-line flags override file
values.  Every artifact directory receives the fully resolved config next to
the outputs, so a run can be replayed bit-identically (wall-time fields
aside).

Exit codes: 0 converged, 2 solver failure, 3 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import problems
from .saa import check_coercivity
from .sampling import draw_samples, partition_linear, partition_uniform
from .schedule import make_schedule
from .tracer import TraceConfig, path_to_csv, trace

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


@dataclass
class RunConfig:
    problem: str = "sin"
    n: int = 3
    N: int = 10 ** 4
    L: int = 100
    partition: str = "uniform"  # uniform | linear
    tau1: int = 500
    schedule: str = "uniform"   # uniform | random-descending | harmonic
    tau0: float = 7000.0
    sched_seed: int = 1
    seed: int = 1
    kappa0: int = 2
    alpha: str = ""  # comma-separated floats; empty means zero
    h0: float = 1e-2
    h_min: float = 1e-10
    h_max: float = 0.2
    corrector_tol: float = 1e-10
    max_corrector_iters: int = 10
    grow: float = 1.5
    shrink: float = 0.5
    max_steps: int = 10 ** 6
    t_end: float = -1.0  # negative means the kind-specific default
    polish_tol: float = 1e-12
    reps: int = 1
    L_values: str = ""  # comma-separated, sweep-l only
    out: str = "out"

    def to_kv(self) -> str:
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    @staticmethod
    def from_kv(text: str) -> "RunConfig":
        cfg = RunConfig()
        casts = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in casts:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            setattr(cfg, key, casts[key](val))
        return cfg


def _tracer_config(cfg: RunConfig) -> TraceConfig:
    return TraceConfig(
        h0=cfg.h0, h_min=cfg.h_min, h_max=cfg.h_max,
        corrector_tol=cfg.corrector_tol,
        max_corrector_iters=cfg.max_corrector_iters,
        grow=cfg.grow, shrink=cfg.shrink, max_steps=cfg.max_steps,
        t_end=None if cfg.t_end < 0 else cfg.t_end,
        polish_tol=cfg.polish_tol)


def build_run(cfg: RunConfig, L: int | None = None, seed: int | None = None):
    """Instance + homotopy map for one run; validates the configuration."""
    L = cfg.L if L is None else L
    seed = cfg.seed if seed is None else seed
    inst = problems.get_instance(cfg.problem, cfg.n)
    if cfg.partition == "linear":
        part = partition_linear(cfg.tau1, L)
        N = part.N
    else:
        if L > cfg.N or L < 1:
            raise ValueError(f"need 1 <= L <= N, got L={L}, N={cfg.N}")
        part = partition_uniform(cfg.N, L)
        N = cfg.N
    samples = draw_samples(inst.distribution, N, seed=seed)
    sched = make_schedule(cfg.schedule, L,
                          seed=cfg.sched_seed,
                          tau0=cfg.tau0 if cfg.schedule == "harmonic" else None)
    alpha = None
    if cfg.alpha:
        alpha = np.array([float(v) for v in cfg.alpha.split(",")])
    hm = problems.build_homotopy(inst, samples, part, sched, alpha=alpha)
    return inst, hm


def _summary(result, wall: float) -> dict:
    return {
        "status": result.status,
        "x_star": result.x_star.tolist(),
        "u_star": result.u_star.tolist(),
        "t_star": result.t_star,
        "saa_residual": result.saa_residual,
        "final_residual": result.final_residual,
        "counters": result.counters,
        "path_points": len(result.path),
        "wall_time_s": wall,
    }


def _write_artifacts(outdir: Path, cfg: RunConfig, summary: dict,
                     result=None) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.resolved").write_text(cfg.to_kv())
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if result is not None:
        path_to_csv(result, outdir / "path.csv")


def cmd_solve(cfg: RunConfig) -> int:
    inst, hm = build_run(cfg)
    t0 = time.perf_counter()
    result = trace(hm, _tracer_config(cfg))
    wall = time.perf_counter() - t0
    summary = _summary(result, wall)
    summary["config"] = asdict(cfg)
    _write_artifacts(Path(cfg.out), cfg, summary, result)
    print(f"{result.status}: t*={result.t_star:.3g} "
          f"x*={np.array2string(result.x_star, precision=6)} "
          f"saa_residual={result.saa_residual:.3e} "
          f"sample_evals={result.counters['sample_evals']}")
    return EXIT_OK if result.status == "converged" else EXIT_SOLVER


def cmd_sweep_l(cfg: RunConfig) -> int:
    if not cfg.L_values:
        raise ValueError("sweep-l requires L_values (comma-separated)")
    L_list = [int(v) for v in cfg.L_values.split(",")]
    rows = []
    worst = "converged"
    for L in L_list:
        evals, walls = [], []
        for rep in range(cfg.reps):
            inst, hm = build_run(cfg, L=L, seed=cfg.seed + rep)
            t0 = time.perf_counter()
            result = trace(hm, _tracer_config(cfg))
            walls.append(time.perf_counter() - t0)
            evals.append(result.counters["sample_evals"])
            if result.status != "converged":
                worst = result.status
        rows.append({"L": L, "mean_sample_evals": float(np.mean(evals)),
                     "min_sample_evals": int(np.min(evals)),
                     "max_sample_evals": int(np.max(evals)),
                     "mean_wall_time_s": float(np.mean(walls))})
    best = min(rows, key=lambda r: r["mean_sample_evals"])
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sweep.csv", "w") as fh:
        fh.write("L,mean_sample_evals,min_sample_evals,max_sample_evals,"
                 "mean_wall_time_s,is_min\n")
        for r in rows:
            fh.write(f"{r['L']},{r['mean_sample_evals']:.17g},"
                     f"{r['min_sample_evals']},{r['max_sample_evals']},"
                     f"{r['mean_wall_time_s']:.6g},"
                     f"{int(r['L'] == best['L'])}\n")
    summary = {"rows": rows, "best_L": best["L"], "status": worst,
               "config": asdict(cfg)}
    _write_artifacts(outdir, cfg, summary)
    for r in rows:
        mark = "  <- min" if r["L"] == best["L"] else ""
        print(f"L={r['L']:>8d}  mean evals={r['mean_sample_evals']:.4g}{mark}")
    return EXIT_OK if worst == "converged" else EXIT_SOLVER


def cmd_compare(cfg: RunConfig) -> int:
    results = {}
    walls = {}
    for label, L in (("grsaa", cfg.L), ("standard", 1)):
        inst, hm = build_run(cfg, L=L)
        t0 = time.perf_counter()
        results[label] = trace(hm, _tracer_config(cfg))
        walls[label] = time.perf_counter() - t0
    ev_g = results["grsaa"].counters["sample_evals"]
    ev_s = results["standard"].counters["sample_evals"]
    summary = {
        "grsaa": _summary(results["grsaa"], walls["grsaa"]),
        "standard": _summary(results["standard"], walls["standard"]),
        "sample_evals_ratio": ev_g / ev_s,
        "wall_time_ratio": walls["grsaa"] / walls["standard"],
        "config": asdict(cfg),
    }
    _write_artifacts(Path(cfg.out), cfg, summary)
    print(f"grsaa evals={ev_g}  standard evals={ev_s}  "
          f"ratio={ev_g / ev_s:.4f}")
    ok = all(r.status == "converged" for r in results.values())
    return EXIT_OK if ok else EXIT_SOLVER


def cmd_diagnose_coercivity(cfg: RunConfig) -> int:
    inst, hm = build_run(cfg)
    report = check_coercivity(hm.blended)
    out = {"min_inner_product": report["min_inner_product"],
           "warning": report["warning"],
           "boundary_points": report["boundary_points"],
           "grid_density": report["grid_density"],
           "samples_tested": report["samples_tested"],
           "argmin_x": None if report["argmin"][0] is None
           else np.asarray(report["argmin"][0]).tolist(),
           "argmin_sample_index": report["argmin"][1],
           "config": asdict(cfg)}
    _write_artifacts(Path(cfg.out), cfg, out)
    word = "WARNING: condition violated on tested set" if report["warning"] else "ok"
    print(f"min (x-x0).f(x,xi) over boundary grid (density "
          f"{report['grid_density']}) = {report['min_inner_product']:.6g}  [{word}]")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)
    for name in ("problem", "partition", "schedule", "alpha", "L-values"):
        p.add_argument(f"--{name}")
    for name in ("n", "N", "L", "tau1", "sched-seed", "kappa0", "reps",
                 "max-corrector-iters", "max-steps"):
        p.add_argument(f"--{name}", type=int)
    for name in ("tau0", "h0", "h-min", "h-max", "corrector-tol", "grow",
                 "shrink", "t-end", "polish-tol"):
        p.add_argument(f"--{name}", type=float)


def _resolve(args: argparse.Namespace) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_kv(Path(args.config).read_text())
    else:
        cfg = RunConfig()
    overrides = {}
    for f in fields(cfg):
        val = getattr(args, f.name, None)
        if val is not None:
            overrides[f.name] = val
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grsaa",
        description="GRSAA differentiable-homotopy solver and experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep-l", "compare", "diagnose-coercivity"):
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {"solve": cmd_solve, "sweep-l": cmd_sweep_l,
               "compare": cmd_compare,
               "diagnose-coercivity": cmd_diagnose_coercivity}[args.command]
    try:
        return handler(cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
