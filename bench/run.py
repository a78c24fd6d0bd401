"""grsaa benchmark: one workload, timed passes, answer checks, one JSON line.

    python3 bench/run.py --workload market --seed 0 --seconds 30 --trace 0

Each pass runs every job of one seed block of the workload through the CLI
handlers (``cmd_solve`` / ``cmd_sweep_l``) exactly as ``grsaa solve`` and
``grsaa sweep-l`` would, writing artifacts to a scratch directory inside the
checkout.  Passes cycle through the blocks until --seconds is used up.
Answer checks, determinism checks, set-up repetitions and the reference
kernel run between the timed passes.

--trace 0 reports the end-to-end metrics; --trace 1 spends half the time on
untraced passes and half on traced ones and reports the per-layer metrics,
including the tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
WORKLOADS = ("market", "svi-sweep", "sin-small", "sin-dims")
SETUP_SECONDS = 0.1
PEAK_SOLVES, PEAK_SECONDS = 50, 2.0
# Reference-kernel time that reported seconds are scaled to: about what the
# kernel takes on an Intel Xeon 2-vCPU VM when the host is quiet.
REF_NOMINAL_S = 0.125

E2E_UNITS = {"wall_s": "s", "solve_s_p50": "s", "solve_s_p90": "s",
             "setup_s": "s", "sample_evals": "count", "jac_evals": "count",
             "peak_alloc_mb": "MB"}

LAYER_UNITS = {
    "problems.residual_calls": "count", "problems.residual_rows": "count",
    "problems.residual_self_s": "s", "problems.residual_ns_per_row": "ns",
    "problems.jacobian_calls": "count", "problems.jacobian_rows": "count",
    "problems.jacobian_self_s": "s", "problems.jacobian_ns_per_row": "ns",
    "problems.jacobian_bytes_computed": "B",
    "saa.calls": "count", "saa.self_s": "s", "saa.repeat_pass_ratio": "ratio",
    "homotopy.eval_calls": "count", "homotopy.jac_calls": "count",
    "homotopy.self_s": "s", "homotopy.transform_self_s": "s",
    "tracer.tangent_self_s": "s", "tracer.correct_self_s": "s",
    "tracer.trace_self_s": "s", "tracer.predictor_steps": "count",
    "tracer.rejected_steps": "count", "tracer.accept_ratio": "ratio",
    "tracer.corrector_iters": "count",
    "tracer.corrector_iters_per_step": "iter/step",
    "newton.calls": "count", "newton.self_s": "s", "newton.map_calls": "count",
    "newton.failures": "count",
    "cli.write_s": "s", "cli.artifact_bytes": "B",
    "sampling.draw_s": "s", "schedule.make_s": "s",
    "tracing.overhead_s": "s",
}

# layers whose spans nest inside the solve; their self times sum to it
SOLVER_LAYERS = ("problems", "saa", "homotopy", "transform", "tracer", "newton")
ALL_LAYERS = SOLVER_LAYERS + ("cli", "sampling", "schedule")


@dataclass
class Solve:
    """What a run keeps of one solve once its answer has been checked."""

    key: tuple  # (problem, n, N, L, sample seed)
    seconds: float
    status: str
    counters: dict
    jac_evals: int
    x_bytes: bytes
    answer_ok: bool = False
    detail: str = ""

    def fingerprint(self) -> tuple:
        c = self.counters
        return (self.key, self.status, c["sample_evals"], self.jac_evals,
                c["predictor_steps"], c["rejected_steps"],
                c["corrector_iters_total"], self.x_bytes)


@dataclass
class Pass:
    wall: float
    solves: list[Solve]
    errors: int
    stats: dict
    extra: dict
    artifact_bytes: int
    setups: list[float] = field(default_factory=list)
    ref: float = 0.0    # reference-kernel seconds around this pass
    scale: float = 1.0  # REF_NOMINAL_S / ref
    block: int = 0      # index of the seed block the pass ran


class Bench:
    """Runs passes of one workload and records solves through CLI hooks."""

    def __init__(self, cli, layers, check_answer, block_list, outdir: Path):
        self.cli = cli
        self.layers = layers
        self.check_answer = check_answer
        self.outdir = outdir
        self.blocks = [[(cmd, replace(cfg, out=str(outdir / f"block{b}" / f"job{i}")))
                        for i, (cmd, cfg) in enumerate(jobs)]
                       for b, jobs in enumerate(block_list)]
        self.handlers = {"solve": cli.cmd_solve, "sweep-l": cli.cmd_sweep_l}
        self.spans = layers.Spans()
        self.hooks = layers.Hooks(self.spans)
        self.layer_hooks = None
        self.build_calls: list[tuple] = []
        self._built: dict[int, tuple] = {}
        self._traced: list[tuple] = []
        self._build_run = cli.build_run
        # Always on: the set-up and solve boundaries give setup_s, the solve
        # times and the results the answer checks read.
        if not (self.hooks.module(cli, "build_run", "setup", self._build_factory)
                and self.hooks.module(cli, "trace", "tracer", self._trace_factory)):
            raise RuntimeError(f"missing CLI hooks: {self.hooks.missing}")

    def _build_factory(self, fn):
        span = self.spans.wrap(("setup", "build_run"), fn)

        def build_run(cfg, L=None, seed=None):
            inst, hm = span(cfg, L=L, seed=seed)
            key = (cfg.problem, cfg.n, cfg.N, cfg.L if L is None else L,
                   cfg.seed if seed is None else seed)
            self._built[id(hm)] = (key, inst)
            self.build_calls.append((cfg, L, seed))
            if self.layer_hooks is not None:
                self.layer_hooks.public_methods(hm, "homotopy")
                bm = getattr(hm, "blended", None)
                self.layer_hooks.public_methods(bm, "saa")
                self.layer_hooks.system_callables(getattr(bm, "system", None))
            return inst, hm

        return build_run

    def _trace_factory(self, fn):
        span = self.spans.wrap(("tracer", "trace"), fn)

        def trace(hm, cfg=None):
            t0 = time.perf_counter()
            result = span(hm, cfg)
            seconds = time.perf_counter() - t0
            key, inst = self._built.pop(id(hm))
            solve = Solve(key, seconds, result.status, dict(result.counters),
                          hm.blended.jac_counter, result.x_star.tobytes())
            self._traced.append((solve, inst, hm, result))
            return result

        return trace

    def install_layer_hooks(self) -> None:
        """Spans on every layer; builds made from now on are traced too."""
        import grsaa.homotopy as homotopy
        import grsaa.tracer as tracer
        h = self.layer_hooks = self.layers.Hooks(self.spans)
        h.module(self.cli, "draw_samples", "sampling")
        h.module(self.cli, "make_schedule", "schedule")
        h.module(self.cli, "_write_artifacts", "cli")
        h.module(self.cli, "path_to_csv", "cli")
        h.module(tracer, "tangent", "tracer")
        h.module(tracer, "correct", "tracer")
        h.module(tracer, "damped_newton", "newton", h.newton_factory)
        h.module(homotopy, "transform", "transform")
        h.module(homotopy, "transform_derivs", "transform")

    def uninstall(self) -> None:
        if self.layer_hooks is not None:
            self.layer_hooks.uninstall()
        self.hooks.uninstall()

    def run_pass(self, block: int) -> Pass:
        """One timed pass over the jobs of one block, then (untimed) the
        answer check of each solve.  Maps and results are dropped after the
        check, so the heap does not grow from pass to pass."""
        jobs = self.blocks[block]
        self._traced, self.build_calls = [], []
        self.spans.reset()
        errors = 0
        sink = io.StringIO()
        t0 = time.perf_counter()
        for cmd, cfg in jobs:
            try:
                with contextlib.redirect_stdout(sink):
                    self.handlers[cmd](cfg)
            except Exception:
                errors += 1
                traceback.print_exc()
        wall = time.perf_counter() - t0
        stats = {k: list(v) for k, v in self.spans.stats.items()}
        extra = dict(self.spans.extra)
        for solve, inst, hm, result in self._traced:
            solve.answer_ok, solve.detail = self.check_answer(inst, hm, result)
        solves = [t[0] for t in self._traced]
        self._traced = []
        written = sum(f.stat().st_size for _, cfg in jobs
                      for f in Path(cfg.out).rglob("*") if f.is_file())
        return Pass(wall, solves, errors, stats, extra, written, block=block)

    def run_for(self, seconds: float) -> list[Pass]:
        """Passes, cycling through the blocks, until another one would
        overrun `seconds`; every block runs at least once.

        The reference kernel runs between passes; a pass's `scale` is
        REF_NOMINAL_S over the mean reference time on either side of it.
        After each pass its set-ups are replayed for SETUP_SECONDS, so the
        set-up samples span the same stretch of time as the passes."""
        passes: list[Pass] = []
        start = time.perf_counter()
        ref_before = reference_seconds()
        while True:
            p = self.run_pass(len(passes) % len(self.blocks))
            ref_after = reference_seconds()
            p.ref = (ref_before + ref_after) / 2
            p.scale = REF_NOMINAL_S / p.ref
            ref_before = ref_after
            p.setups = self.setup_rounds(self.build_calls)
            passes.append(p)
            typical = statistics.median(q.wall for q in passes)
            if (len(passes) >= len(self.blocks)
                    and time.perf_counter() - start + typical > seconds):
                return passes

    def peak_alloc(self, cfgs: list) -> int:
        """Largest tracemalloc peak, above the memory held before it started,
        of single untimed solves taken in order until PEAK_SOLVES solves or
        PEAK_SECONDS have run (at least one).  These solves also warm the
        code paths before the timed passes."""
        peak = 0
        start = time.perf_counter()
        tracemalloc.start()
        try:
            for i, cfg in enumerate(cfgs[:PEAK_SOLVES]):
                if i and time.perf_counter() - start > PEAK_SECONDS:
                    break
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with contextlib.redirect_stdout(io.StringIO()):
                    self.cli.cmd_solve(replace(cfg, out=str(self.outdir / "peak")))
                peak = max(peak, tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
            self._traced = []
        return peak

    def setup_rounds(self, calls: list[tuple]) -> list[float]:
        """Summed build_run time of one pass's set-ups, repeated with nothing
        else running for SETUP_SECONDS (at least one round)."""
        out: list[float] = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < SETUP_SECONDS:
            t0 = time.perf_counter()
            for cfg, L, seed in calls:
                self._build_run(cfg, L=L, seed=seed)
            out.append(time.perf_counter() - t0)
        return out


def reference_seconds() -> float:
    """Wall time of a fixed kernel that mixes the solver's kinds of work:
    ufuncs over 10^4-row arrays, small dense linear algebra and interpreter
    loops.  It calls nothing in grsaa, so it measures only machine speed."""
    import numpy as np
    rng = np.random.default_rng(0)
    rows, small = rng.random((10_000, 3)), rng.random((5, 6))
    shift = 5.0 * np.eye(5)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30):
        for k in (1, 2):
            acc += float(np.exp(np.cos(rows * (i % 7 + k))).sum(axis=0)[0])
        for _ in range(33):
            np.linalg.qr(small.T, mode="complete")
            acc += float(np.linalg.solve(small[:, :5] + shift, small[:, 5])[0])
            acc += float(np.linalg.cond(small[:, :5]))
        acc += sum(j * 0.5 for j in range(10_000))
    return time.perf_counter() - t0


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (1..99), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return "single value"
    q = statistics.quantiles(values, n=4)
    return f"quartiles {q[0]:.6g}..{q[2]:.6g}"


def by_block(passes: list[Pass]) -> list[list[Pass]]:
    """The passes of each block, blocks in order (each ran at least once)."""
    return [[p for p in passes if p.block == b]
            for b in range(max(p.block for p in passes) + 1)]


def check_determinism(passes: list[Pass]) -> list[str]:
    """Every pass must repeat the first pass of its block solve by solve,
    bit for bit."""
    first = [group[0] for group in by_block(passes)]
    problems = []
    for i, p in enumerate(passes):
        if p is first[p.block]:
            continue
        ref = [s.fingerprint() for s in first[p.block].solves]
        fps = [s.fingerprint() for s in p.solves]
        if len(fps) != len(ref):
            problems.append(f"pass {i}: {len(fps)} solves, expected {len(ref)}")
            continue
        for a, b in zip(ref, fps):
            if a != b:
                problems.append(f"pass {i}: solve {a[0]} differs (status, evals, "
                                f"jac, steps, rejected, iters {a[1:7]} vs {b[1:7]}; "
                                f"x* equal: {a[7] == b[7]})")
    return problems


def environment(seed: int) -> dict:
    import platform

    import numpy as np
    import scipy
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "cpu_model": None, "blas_threads": blas_threads(), "seed": seed}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            if (idx / "type").read_text().strip() != "Instruction":
                level = (idx / "level").read_text().strip()
                env[f"l{level}_cache"] = (idx / "size").read_text().strip()
    return env


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or the pinned setting if
    the library cannot be queried."""
    import ctypes
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" not in path:
                continue
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def solve_quantile(passes: list[Pass], q: int, scaled: bool = True) -> float:
    """Median over the passes of the q-th percentile of the pass's solve
    times."""
    return statistics.median(
        quantile([s.seconds * (p.scale if scaled else 1.0) for s in p.solves], q)
        for p in passes)


def block_count(passes: list[Pass], count) -> float:
    """Median over the blocks of count(first pass of the block); with one
    block, that pass's count.  Counts repeat exactly between the passes of
    a block (the determinism check)."""
    return statistics.median(count(group[0]) for group in by_block(passes))


def e2e_metrics(passes: list[Pass], peak: int) -> dict:
    """Times are scaled by each pass's reference factor (see run_for)."""
    return {
        "wall_s": statistics.median(p.wall * p.scale for p in passes),
        "solve_s_p50": solve_quantile(passes, 50),
        "solve_s_p90": solve_quantile(passes, 90),
        "setup_s": statistics.median(t * p.scale for p in passes for t in p.setups),
        "sample_evals": block_count(
            passes, lambda p: sum(s.counters["sample_evals"] for s in p.solves)),
        "jac_evals": block_count(passes, lambda p: sum(s.jac_evals for s in p.solves)),
        "peak_alloc_mb": peak / 2 ** 20,
    }


def layer_metrics(p: Pass) -> dict:
    st, ex = p.stats, p.extra

    def calls(layer, op):
        return st.get((layer, op), [0, 0, 0])[0]

    def self_s(layer, op=None):
        return sum(v[2] for (lay, o), v in st.items()
                   if lay == layer and op in (None, o)) / 1e9

    def total_s(layer, op):
        return st.get((layer, op), [0, 0, 0])[1] / 1e9

    def ns_per_row(op):
        rows = ex.get(f"problems.{op}.rows", 0)
        return self_s("problems", op) * 1e9 / rows if rows else 0.0

    res_calls = calls("problems", "residual")
    steps = sum(s.counters["predictor_steps"] for s in p.solves)
    rejected = sum(s.counters["rejected_steps"] for s in p.solves)
    iters = sum(s.counters["corrector_iters_total"] for s in p.solves)
    return {
        "problems.residual_calls": res_calls,
        "problems.residual_rows": ex.get("problems.residual.rows", 0),
        "problems.residual_self_s": self_s("problems", "residual"),
        "problems.residual_ns_per_row": ns_per_row("residual"),
        "problems.jacobian_calls": calls("problems", "jacobian"),
        "problems.jacobian_rows": ex.get("problems.jacobian.rows", 0),
        "problems.jacobian_self_s": self_s("problems", "jacobian"),
        "problems.jacobian_ns_per_row": ns_per_row("jacobian"),
        "problems.jacobian_bytes_computed": 8 * ex.get("problems.jacobian.rows_n2", 0),
        "saa.calls": sum(v[0] for (lay, _), v in st.items() if lay == "saa"),
        "saa.self_s": self_s("saa"),
        "saa.repeat_pass_ratio": (ex.get("problems.residual.repeats", 0) / res_calls
                                  if res_calls else 0.0),
        "homotopy.eval_calls": calls("homotopy", "eval"),
        "homotopy.jac_calls": calls("homotopy", "jac"),
        "homotopy.self_s": self_s("homotopy"),
        "homotopy.transform_self_s": self_s("transform"),
        "tracer.tangent_self_s": self_s("tracer", "tangent"),
        "tracer.correct_self_s": self_s("tracer", "correct"),
        "tracer.trace_self_s": self_s("tracer", "trace"),
        "tracer.predictor_steps": steps,
        "tracer.rejected_steps": rejected,
        "tracer.accept_ratio": steps / (steps + rejected) if steps + rejected else 0.0,
        "tracer.corrector_iters": iters,
        "tracer.corrector_iters_per_step": iters / steps if steps else 0.0,
        "newton.calls": calls("newton", "damped_newton"),
        "newton.self_s": self_s("newton"),
        "newton.map_calls": ex.get("newton.map_calls", 0),
        "newton.failures": ex.get("newton.failures", 0),
        "cli.write_s": self_s("cli"),
        "cli.artifact_bytes": p.artifact_bytes,
        "sampling.draw_s": total_s("sampling", "draw_samples"),
        "schedule.make_s": total_s("schedule", "make_schedule"),
    }


def median_layer_metrics(passes: list[Pass]) -> dict:
    """Times: median over the passes; counts and ratios: median over the
    blocks of the block's first pass (they repeat within a block)."""
    per = [layer_metrics(p) for p in passes]
    firsts = [layer_metrics(group[0]) for group in by_block(passes)]
    timed = {name for name, unit in LAYER_UNITS.items() if unit in ("s", "ns")}
    return {name: statistics.median(m[name] for m in (per if name in timed else firsts))
            for name in per[0]}


def report_e2e(plain: list[Pass], peak: int) -> dict:
    metrics = e2e_metrics(plain, peak)
    setup = [t for p in plain for t in p.setups]
    print(f"reference kernel {statistics.median(p.ref for p in plain):.6g} s "
          f"(median, {spread([p.ref for p in plain])}); reported times are "
          f"scaled to {REF_NOMINAL_S} s")
    print(f"e2e wall_s {metrics['wall_s']:.6g} s scaled, "
          f"{statistics.median(p.wall for p in plain):.6g} s raw "
          f"(median of {len(plain)} passes, raw {spread([p.wall for p in plain])})")
    print(f"e2e solve_s_p50 {metrics['solve_s_p50']:.6g} s scaled, "
          f"{solve_quantile(plain, 50, scaled=False):.6g} s raw; solve_s_p90 "
          f"{metrics['solve_s_p90']:.6g} s scaled, "
          f"{solve_quantile(plain, 90, scaled=False):.6g} s raw "
          f"(percentiles of each pass's solves, median of {len(plain)} passes)")
    print(f"e2e setup_s {metrics['setup_s']:.6g} s scaled, "
          f"{statistics.median(setup):.6g} s raw (median of {len(setup)} "
          f"set-up rounds)")
    return metrics


def report_layers(plain: list[Pass], traced: list[Pass], hooks) -> dict:
    metrics = median_layer_metrics(traced)
    metrics["tracing.overhead_s"] = (statistics.median(p.wall * p.scale for p in traced)
                                     - statistics.median(p.wall * p.scale for p in plain))
    solve_s = statistics.median(p.stats[("tracer", "trace")][1] / 1e9
                                for p in traced)
    layer_sum = statistics.median(
        sum(v[2] for (lay, _), v in p.stats.items() if lay in SOLVER_LAYERS) / 1e9
        for p in traced)
    print(f"traced solve time {solve_s:.6g} s per pass; solver-layer self "
          f"times sum to {layer_sum:.6g} s")
    print(f"tracing overhead {metrics['tracing.overhead_s']:.6g} scaled s per pass "
          f"({len(plain)} untraced, {len(traced)} traced passes)")
    absent = sorted(set(ALL_LAYERS) - hooks.present)
    if absent or hooks.missing:
        print(f"absent layers (reported as 0): {absent}; "
              f"missing hooks: {hooks.missing}")
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grsaa" / "__init__.py").is_file():
        print(f"error: no grsaa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grsaa
    if Path(grsaa.__file__).resolve().parent != SRC / "grsaa":
        print(f"error: grsaa imported from {grsaa.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import grsaa.cli as cli
    import layers
    import workloads as wl

    block_list = wl.blocks(args.workload, args.seed)
    print("env " + json.dumps(environment(args.seed)))
    SCRATCH.mkdir(exist_ok=True)
    traced: list[Pass] = []
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        bench = Bench(cli, layers, wl.check_answer, block_list, Path(tmp))
        try:
            peak = bench.peak_alloc(wl.largest_solves(
                [job for jobs in block_list for job in jobs]))
            plain = bench.run_for(args.seconds / 2 if args.trace else args.seconds)
            if args.trace:
                bench.install_layer_hooks()
                traced = bench.run_for(args.seconds / 2)
        finally:
            bench.uninstall()
    with contextlib.suppress(OSError):
        SCRATCH.rmdir()

    passes = plain + traced
    solves = [s for p in passes for s in p.solves]
    errors = sum(p.errors for p in passes)
    attempted = len(solves) + errors
    bad = [s for s in solves if not (s.answer_ok and s.status == "converged")]
    wrong = sum(s.status == "converged" for s in bad)
    failed = len(bad) + errors
    nondet = check_determinism(passes)
    fp = hashlib.sha256(repr([s.fingerprint() for group in by_block(passes)
                              for s in group[0].solves]).encode()).hexdigest()

    print(f"workload {args.workload}: {len(block_list)} blocks of "
          f"{len(block_list[0])} jobs, {len(passes[0].solves)} solves per pass, "
          f"{len(passes)} passes, seed {args.seed}")
    for s in bad[:5]:
        print(f"answer check failed: {s.key} status={s.status} {s.detail}")
    for line in nondet:
        print("NONDETERMINISTIC " + line, file=sys.stderr)
    print(f"fingerprint sha256:{fp}")
    print(f"e2e fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} solves)")
    print(f"e2e wrong_answer_ratio {wrong / attempted:.6g} ratio "
          f"({wrong} of {attempted} solves converged to a wrong answer)")
    if args.trace:
        units = LAYER_UNITS
        metrics = report_layers(plain, traced, bench.layer_hooks)
    else:
        units = E2E_UNITS
        metrics = report_e2e(plain, peak)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not nondet and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 1 if nondet else 0


if __name__ == "__main__":
    sys.exit(main())
