"""Adaptive predictor-corrector continuation along the zero set of a
homotopy map, from the known solution at t = 1 down to t = 0.

The kernel is the classic one: unit tangent from the full (u, t)-Jacobian,
first-order Euler predictor, Newton corrector on the system augmented with
the tangent hyperplane, multiplicative step-length adaptation.  Terminal
handling depends on the map kind: the plain homotopy coincides with the
full-sample SAA at t = 0 and is polished there by Newton; the smoothed-KKT
map stops at a small positive t_end because the complementarity transform
loses differentiability at t = 0 on the active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homotopy import HomotopyMap
from .newton import NewtonFailure, damped_newton

__all__ = ["TraceConfig", "PathPoint", "TraceResult", "SingularJacobianError",
           "tangent", "correct", "trace", "path_to_csv"]

_COND_LIMIT = 1e12


class SingularJacobianError(RuntimeError):
    pass


@dataclass
class TraceConfig:
    h0: float = 1e-2
    h_min: float = 1e-10
    h_max: float = 0.2
    corrector_tol: float = 1e-10
    max_corrector_iters: int = 10
    grow: float = 1.5
    shrink: float = 0.5
    max_steps: int = 10 ** 6
    t_end: float | None = None  # default by kind: 0 (plain), 1e-8 (smoothed_kkt)
    polish_tol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.h_min <= self.h0 <= self.h_max):
            raise ValueError("need 0 < h_min <= h0 <= h_max")
        if not (0 < self.shrink < 1 < self.grow):
            raise ValueError("need 0 < shrink < 1 < grow")

    def resolved_t_end(self, kind: str) -> float:
        if self.t_end is not None:
            return self.t_end
        return 0.0 if kind == "plain" else 1e-8


@dataclass
class PathPoint:
    u: np.ndarray
    t: float
    step_len: float
    corrector_iters: int
    residual: float
    cum_sample_evals: int = 0


@dataclass
class TraceResult:
    status: str  # converged | stalled | max_steps | diverged-out-of-box
    u_star: np.ndarray
    t_star: float
    saa_residual: float  # ||f^L(x*)||_inf on the state part
    final_residual: float
    path: list[PathPoint]
    counters: dict
    n: int  # state dimension; u_star[:n] is the state part

    @property
    def x_star(self) -> np.ndarray:
        return self.u_star[: self.n]


def tangent(J: np.ndarray, prev: np.ndarray | None) -> np.ndarray:
    """Unit kernel vector of the d x (d+1) Jacobian.

    Orientation: positive inner product with the previous tangent, or a
    negative t-component on the first step (t must initially decrease).
    """
    J = np.asarray(J, dtype=float)
    d = J.shape[0]
    Q, R = np.linalg.qr(J.T, mode="complete")
    diag = np.abs(np.diag(R))
    scale = max(diag.max(), 1.0) if diag.size else 1.0
    if diag.size < d or diag.min() <= 1e-14 * scale:
        raise SingularJacobianError("singular Jacobian: rank-deficient at current point")
    tau = Q[:, d]
    tau = tau / np.linalg.norm(tau)
    if prev is not None:
        if float(tau @ prev) < 0:
            tau = -tau
    elif tau[-1] > 0:
        tau = -tau
    return tau


def correct(hm: HomotopyMap, u_pred: np.ndarray, t_pred: float,
            tau: np.ndarray, cfg: TraceConfig):
    """Newton iteration on {h = 0, tau . (v - v_pred) = 0}.

    Returns (u, t, iterations, residual, J) on success, J being the full
    (u, t)-Jacobian at the accepted point, or None on rejection (non-
    convergence, a non-finite residual, or near-singular linear algebra).
    t is clamped to [0, 1] throughout; excursions beyond are overshoot.
    """
    d = hm.dim
    anchor = np.concatenate([u_pred, [min(max(t_pred, 0.0), 1.0)]])
    v = anchor.copy()
    for it in range(cfg.max_corrector_iters + 1):
        try:
            r, J = hm.evaluate(v[:d], v[d])
        except FloatingPointError:
            return None
        res = float(np.linalg.norm(r, np.inf))
        if res <= cfg.corrector_tol:
            return v[:d], float(v[d]), it, res, J
        if it == cfg.max_corrector_iters:
            return None
        A = np.vstack([J, tau])
        if not np.all(np.isfinite(A)) or np.linalg.cond(A) > _COND_LIMIT:
            return None
        rhs = np.concatenate([r, [tau @ (v - anchor)]])
        v = v + np.linalg.solve(A, -rhs)
        v[d] = min(max(v[d], 0.0), 1.0)
    return None


def _solve_at_t(hm: HomotopyMap, u: np.ndarray, t: float,
                tol: float) -> tuple[np.ndarray, float]:
    """Fixed-t Newton solve of h(u, t) = 0 (the endgame); returns the root
    and the sup norm of its residual, the last one Newton evaluated."""
    d = hm.dim
    last = None

    def F(z):
        nonlocal last
        last = hm.evaluate(z, t, jac=False)[0]
        return last

    u_t = damped_newton(F, lambda z: hm.evaluate(z, t)[1][:, :d], u, tol=tol)
    return u_t, float(np.linalg.norm(last, np.inf))


def trace(hm: HomotopyMap, cfg: TraceConfig | None = None) -> TraceResult:
    """Follow the homotopy path from its start at t = 1 to the terminal level."""
    cfg = cfg or TraceConfig()
    t_end = cfg.resolved_t_end(hm.kind)
    # the plain map meets the full-sample SAA at t = 0 and is polished there
    if hm.kind == "plain":
        t_land, land_tol = 0.0, cfg.polish_tol
    else:
        t_land, land_tol = t_end, cfg.corrector_tol
    d = hm.dim
    n = hm.n
    bm = hm.blended
    sys_ = bm.system
    # divergence guard: problem box widened to twice its width (state part only)
    half = (sys_.box_hi - sys_.box_lo) / 2.0
    guard_lo = sys_.box_lo - half
    guard_hi = sys_.box_hi + half

    evals0, jacs0 = bm.eval_counter, bm.jac_counter
    u = hm.start_point()
    t = 1.0
    r, J = hm.evaluate(u, t)
    res0 = float(np.linalg.norm(r, np.inf))
    path = [PathPoint(u=u.copy(), t=t, step_len=0.0, corrector_iters=0,
                      residual=res0, cum_sample_evals=bm.eval_counter - evals0)]
    counters = {"predictor_steps": 0, "rejected_steps": 0,
                "corrector_iters_total": 0, "sample_evals": 0, "jac_evals": 0}

    def finish(status, u_fin, t_fin, final_res):
        # counted before the full-sample diagnostic pass, which is not solver work
        counters["sample_evals"] = bm.eval_counter - evals0
        counters["jac_evals"] = bm.jac_counter - jacs0
        saa = float(np.linalg.norm(bm.sample_average(bm.L, u_fin[:n]), np.inf))
        return TraceResult(status=status, u_star=u_fin, t_star=t_fin,
                           saa_residual=saa, final_residual=final_res,
                           path=path, counters=counters, n=n)

    def terminal(u_from):
        """Endgame at the terminal level; None if the solve does not land."""
        try:
            u_t, res = _solve_at_t(hm, u_from, t_land, land_tol)
        except NewtonFailure:
            return None
        path.append(PathPoint(u=u_t.copy(), t=t_land, step_len=0.0,
                              corrector_iters=0, residual=res,
                              cum_sample_evals=bm.eval_counter - evals0))
        return finish("converged", u_t, t_land, res)

    h = cfg.h0
    prev_tau = None
    while counters["predictor_steps"] + counters["rejected_steps"] < cfg.max_steps:
        tau = tangent(J, prev_tau)
        t_pred = t + h * tau[-1]
        if t_pred <= t_end and tau[-1] < 0:
            # step would cross the terminal level: try to land there directly
            result = terminal(u)
            if result is not None:
                return result
            h *= cfg.shrink
            if h < cfg.h_min:
                return finish("stalled", u, t, res0)
            counters["rejected_steps"] += 1
            continue
        u_pred = u + h * tau[:d]
        hit = correct(hm, u_pred, t_pred, tau, cfg)
        if hit is None:
            h *= cfg.shrink
            if h < cfg.h_min:
                return finish("stalled", u, t, res0)
            counters["rejected_steps"] += 1
            continue
        u, t, iters, res0, J = hit
        counters["predictor_steps"] += 1
        counters["corrector_iters_total"] += iters
        path.append(PathPoint(u=u.copy(), t=t, step_len=h, corrector_iters=iters,
                              residual=res0,
                              cum_sample_evals=bm.eval_counter - evals0))
        prev_tau = tau
        if np.any(u[:n] < guard_lo) or np.any(u[:n] > guard_hi):
            return finish("diverged-out-of-box", u, t, res0)
        if t <= t_end:
            result = terminal(u)
            if result is not None:
                return result
        if iters <= 3:
            h = min(cfg.grow * h, cfg.h_max)
    return finish("max_steps", u, t, res0)


def path_to_csv(result: TraceResult, path) -> None:
    """Trace export: step, t, ||u||, residual, step_len, corrector_iters,
    cumulative sample evaluations."""
    with open(path, "w") as fh:
        fh.write("step,t,norm_u,residual,step_len,corrector_iters,cum_sample_evals\n")
        for i, p in enumerate(result.path):
            fh.write(f"{i},{p.t:.17g},{np.linalg.norm(p.u):.17g},"
                     f"{p.residual:.17g},{p.step_len:.17g},{p.corrector_iters},"
                     f"{p.cum_sample_evals}\n")
