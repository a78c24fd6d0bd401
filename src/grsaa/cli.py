"""Experiment runner: single solves, L-sweeps (with the cost ratio to the
standard homotopy, L = 1, when it is among them) and the coercivity
diagnostic.

A run's schedule pairs each of its L + 1 nodes t_l with the number q_l of
samples the map averages there, q_l = round(l*N/L); the paper's linear
groups q_l = tau1*l are N = tau1*L.

Configs are flat key=value text files; command-line flags override file
values.  Every artifact directory receives the fully resolved config next to
the outputs, so a run can be replayed bit-identically (wall-time fields
aside).

Exit codes: 0 converged, 2 solver failure, 3 config error (unknown flags,
ill-typed flag values, a key set twice in one file, and a coercivity check
asked of a constrained problem included).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import problems
from .saa import check_coercivity
from .sampling import draw_samples
from .schedule import make_schedule
from .tracer import path_to_csv, trace

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


def _blas(module) -> str:
    try:  # show_config(mode="dicts") needs numpy >= 1.26, scipy >= 1.11
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


# named in every summary.json: the counts move with the LAPACK's last bits
VERSIONS = {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": _blas(np), "scipy_blas": _blas(scipy)}


@dataclass
class RunConfig:
    problem: str = "sin"
    n: int = 3
    N: int = 10 ** 4
    L: int = 100
    schedule: str = "uniform"   # uniform | harmonic
    seed: int = 1
    alpha: str = ""  # comma-separated floats; empty means zero
    reps: int = 1
    L_values: str = ""  # comma-separated, sweep-l only
    out: str = "out"

    def to_kv(self) -> str:
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    @staticmethod
    def from_kv(text: str) -> "RunConfig":
        cfg = RunConfig()
        casts = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)}
        seen = {}  # key -> the line that set it
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in casts:
                raise ValueError(f"line {lineno}: unknown key {key!r}")
            if key in seen:
                raise ValueError(f"line {lineno}: key {key!r} already set "
                                 f"on line {seen[key]}")
            seen[key] = lineno
            setattr(cfg, key, _cast(key, val, casts[key]))
        return cfg


def _cast(key: str, val: str, cast):
    """cast(val), or a ValueError that names the setting."""
    try:
        return cast(val)
    except ValueError:
        raise ValueError(f"{key}={val!r}: expected {cast.__name__}") from None


def build_run(cfg: RunConfig, L: int | None = None, seed: int | None = None):
    """Instance + homotopy map for one run; validates the configuration."""
    L = cfg.L if L is None else L
    seed = cfg.seed if seed is None else seed
    if cfg.seed < 0:
        raise ValueError(f"seed={cfg.seed}: need a seed >= 0")
    inst = problems.get_instance(cfg.problem, cfg.n)
    sched = make_schedule(cfg.schedule, cfg.N, L)
    samples = draw_samples(cfg.N, seed=seed)
    alpha = None
    if cfg.alpha:
        alpha = np.array([_cast("alpha", v, float) for v in cfg.alpha.split(",")])
    hm = problems.build_homotopy(inst, samples, sched, alpha=alpha)
    return inst, hm


def _write_artifacts(outdir: Path, cfg: RunConfig, summary: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.resolved").write_text(cfg.to_kv())
    (outdir / "summary.json").write_text(
        json.dumps({**summary, "versions": VERSIONS}, indent=2) + "\n")


def cmd_solve(cfg: RunConfig) -> int:
    inst, hm = build_run(cfg)
    t0 = time.perf_counter()
    result = trace(hm)
    wall = time.perf_counter() - t0
    summary = {
        "status": result.status,
        "x_star": result.x_star.tolist(),
        "u_star": result.u_star.tolist(),
        "t_star": result.t_star,
        "saa_residual": result.saa_residual,
        "final_residual": result.final_residual,
        "counters": result.counters,
        "path_points": len(result.path),
        "wall_time_s": wall,
        "config": asdict(cfg),
    }
    outdir = Path(cfg.out)
    _write_artifacts(outdir, cfg, summary)
    path_to_csv(result, hm.blended.schedule, outdir / "path.csv")
    print(f"{result.status}: t*={result.t_star:.3g} "
          f"x*={np.array2string(result.x_star, precision=6)} "
          f"saa_residual={result.saa_residual:.3e} "
          f"sample_evals={result.counters['sample_evals']}")
    return EXIT_OK if result.status == "converged" else EXIT_SOLVER


def cmd_sweep_l(cfg: RunConfig) -> int:
    if cfg.reps < 1:
        raise ValueError(f"sweep-l needs reps >= 1, got {cfg.reps}")
    L_list = [_cast("L_values", v, int) for v in cfg.L_values.split(",")]
    for L in L_list:  # refuse any L before the first trace
        make_schedule(cfg.schedule, cfg.N, L)
    rows = []
    status = "converged"  # or the status of the first failed solve
    for L in L_list:
        evals, walls = [], []
        for rep in range(cfg.reps):
            inst, hm = build_run(cfg, L=L, seed=cfg.seed + rep)
            t0 = time.perf_counter()
            result = trace(hm)
            walls.append(time.perf_counter() - t0)
            evals.append(result.counters["sample_evals"])
            if status == "converged":
                status = result.status
        rows.append({"L": L, "N": cfg.N,
                     "mean_sample_evals": float(np.mean(evals)),
                     "min_sample_evals": int(np.min(evals)),
                     "max_sample_evals": int(np.max(evals)),
                     "mean_wall_time_s": float(np.mean(walls))})
    best = min(rows, key=lambda r: r["mean_sample_evals"])
    # cost relative to the standard homotopy (L = 1) on the same samples
    standard = next((r["mean_sample_evals"] for r in rows if r["L"] == 1), None)
    if standard is not None:
        for r in rows:
            r["ratio_to_L1"] = r["mean_sample_evals"] / standard
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sweep.csv", "w") as fh:
        fh.write("L,mean_sample_evals,min_sample_evals,max_sample_evals,"
                 "mean_wall_time_s,"
                 + ("ratio_to_L1," if standard is not None else "") + "is_min\n")
        for r in rows:
            ratio = f"{r['ratio_to_L1']:.17g}," if standard is not None else ""
            fh.write(f"{r['L']},{r['mean_sample_evals']:.17g},"
                     f"{r['min_sample_evals']},{r['max_sample_evals']},"
                     f"{r['mean_wall_time_s']:.6g},{ratio}"
                     f"{int(r['L'] == best['L'])}\n")
    summary = {"rows": rows, "best_L": best["L"], "status": status,
               "config": asdict(cfg)}
    _write_artifacts(outdir, cfg, summary)
    for r in rows:
        ratio = f"  ratio_to_L1={r['ratio_to_L1']:.4f}" if standard is not None else ""
        mark = "  <- min" if r["L"] == best["L"] else ""
        print(f"L={r['L']:>8d}  mean evals={r['mean_sample_evals']:.4g}{ratio}{mark}")
    return EXIT_OK if status == "converged" else EXIT_SOLVER


def cmd_diagnose_coercivity(cfg: RunConfig) -> int:
    inst, hm = build_run(cfg)
    if hm.M:
        raise ValueError(
            f"diagnose-coercivity checks unconstrained maps only: problem "
            f"{cfg.problem!r} has M = {hm.M} constraints B x <= b, and block 2 "
            f"of its map keeps B x < b, which already confines x")
    report = check_coercivity(hm.blended)
    _write_artifacts(Path(cfg.out), cfg, {**report, "config": asdict(cfg)})
    word = "WARNING: condition violated on tested set" if report["warning"] else "ok"
    print(f"min (x-x0).f(x,xi) over {report['boundary_points']} boundary points "
          f"and {report['samples_tested']} samples = "
          f"{report['min_inner_product']:.6g}  [{word}]")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    """--config plus one flag per RunConfig field, typed by its default."""
    p.add_argument("--config", help="key=value config file")
    for f in fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))


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
    for name in ("solve", "sweep-l", "diagnose-coercivity"):
        _add_common(sub.add_parser(name))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        cfg = _resolve(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {"solve": cmd_solve, "sweep-l": cmd_sweep_l,
               "diagnose-coercivity": cmd_diagnose_coercivity}[args.command]
    try:
        return handler(cfg)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
