"""Adaptive predictor-corrector continuation along the zero set of a
homotopy map, from the known solution at t = 1 down to t = 0.

The kernel is the classic one (Allgower & Georg, Introduction to Numerical
Continuation Methods, ch. 3-4): unit tangent, first-order Euler predictor,
Newton corrector, multiplicative step-length adaptation.  All of its linear
algebra is one bordered solve with [J; row], J the full (u, t)-Jacobian,
from one LU factorization that also gives LAPACK's 1-norm condition
estimate; a near-singular or non-finite bordered matrix is refused:
- the tangent borders with the previous tangent and solves for the
  right-hand side e_{d+1}; the first step borders with -e_t, where
  e_t = (0, ..., 0, 1), so that t starts to decrease.  The sign of the
  bordered determinant, read off the same LU factors, is the path's
  orientation at that point: det [J; tau] keeps one sign along a regular
  path traced in one direction (Allgower & Georg, ch. 2);
- the corrector borders with e_t on a steep step, whose tangent has a
  t-component below _HOLD_T_BELOW = -0.1: that holds t at the predicted
  level, where the map is one smooth blend of two sample averages, and
  lets correct() halve a step that does not lower the residual.  A held
  step whose corrected point has the opposite orientation lies past a
  turning point of t or on another branch, where the tangent's border
  would reverse the direction of travel; it is taken again with the
  current tangent as border.  Near a fold, where t must move, the
  corrector borders with the current tangent from the start, which keeps
  the iterate on the hyperplane through the predicted point;
- the landing borders with e_t, which pins t at the map's terminal level:
  without constraints at t = 0, where the map coincides with the
  full-sample SAA and is polished to _POLISH_TOL; with constraints at a small
  positive t_end, because the complementarity transform loses
  differentiability at t = 0 on the active set.  It starts from the
  tangent's extrapolation to t_end, u + (t_end - t) / tau_t * tau_u.

Step control (Allgower & Georg, ch. 6.1): the tangent at a corrected point
is computed before the step is accepted.  If its cosine with the previous
tangent is below _MIN_COS = 0.5, a turn of more than 60 degrees, or no
tangent exists there, the step is rejected like a failed corrector: h is
halved and the previous tangent kept.  An accepted point's tangent is the
next step's, so an accepted step costs one tangent solve, and a held step
taken again on the tangent hyperplane two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgesv, dlange

from .homotopy import HomotopyMap
from .schedule import NodeSchedule

__all__ = ["TraceConfig", "PathPoint", "TraceResult", "tangent", "correct",
           "trace", "path_to_csv"]

_COND_LIMIT = 1e12
_POLISH_TOL = 1e-12
# step control; TraceConfig keeps only the settings that tests vary
_CORRECTOR_TOL = 1e-10
_H_MIN = 1e-10
_GROW = 1.5
_SHRINK = 0.5
_HOLD_T_BELOW = -0.1  # a tangent t-component below this holds t (steep step)
_MIN_COS = 0.5  # a step whose tangent turns more than 60 degrees is rejected


@dataclass
class TraceConfig:
    h0: float = 1e-2
    h_max: float = 0.2
    max_corrector_iters: int = 10
    max_steps: int = 10 ** 6

    def __post_init__(self):
        if not (_H_MIN <= self.h0 <= self.h_max):
            raise ValueError(f"need {_H_MIN:g} <= h0 <= h_max")


@dataclass
class PathPoint:
    u: np.ndarray
    t: float
    step_len: float
    corrector_iters: int
    residual: float
    cum_sample_evals: int = 0
    cum_jac_evals: int = 0


@dataclass
class TraceResult:
    # converged | stalled | max_steps | diverged-out-of-box |
    # returned-to-start (an accepted point after the start is back at t = 1)
    status: str
    saa_residual: float  # ||f^L(x*)||_inf on the state part
    path: list[PathPoint]
    counters: dict
    n: int  # state dimension; u_star[:n] is the state part

    @property
    def u_star(self) -> np.ndarray:
        return self.path[-1].u

    @property
    def t_star(self) -> float:
        return self.path[-1].t

    @property
    def final_residual(self) -> float:
        return self.path[-1].residual

    @property
    def x_star(self) -> np.ndarray:
        return self.u_star[: self.n]


def _inf_norm(r: np.ndarray) -> float:
    """||r||_inf, NaN when r holds a NaN."""
    return float(np.maximum.reduce(np.abs(r)))


def _bordered_solve(J: np.ndarray, row: np.ndarray, rhs: np.ndarray,
                    det_sign: bool = False):
    """Solution z of [J; row] z = rhs, or None when the bordered matrix A is
    near-singular; with det_sign, the pair (z, sign of det A).

    A is filled in place in a Fortran-order buffer, which LAPACK factors
    without a copy.  One call (dgesv) factors A = LU and solves; the LU
    factors give dgecon's estimate rcond of 1 / cond_1(A) from ||A||_1
    (dlange, which sums each column in order).  The solution is refused when
    a pivot is exactly zero or rcond * _COND_LIMIT < 1; a NaN or inf entry
    makes ||A||_1, and so rcond, NaN or 0 and is refused too.  det A is the
    product of U's diagonal times the sign of the row interchanges.
    """
    d = J.shape[0]
    A = np.empty((d + 1, d + 1), order="F")
    A[:d] = J
    A[d] = row
    norm1 = dlange("1", A)
    lu, piv, z, info = dgesv(A, rhs, overwrite_a=1)
    if info != 0:
        return None
    rcond = dgecon(lu, norm1)[0]
    if not rcond * _COND_LIMIT >= 1.0:  # also false for a NaN rcond
        return None
    if not det_sign:
        return z
    # dgesv swapped row i with row piv[i] (0-based) before eliminating it
    flips = (np.count_nonzero(piv != np.arange(d + 1))
             + np.count_nonzero(np.diagonal(lu) < 0.0))
    return z, -1 if flips % 2 else 1


def tangent(J: np.ndarray, prev: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Unit kernel vector tau of the d x (d+1) Jacobian with a positive inner
    product with prev, and the orientation sign(det [J; tau]); None where J
    bordered with prev is near-singular.

    The trace passes -e_t as prev on its first step, so that t starts to
    decrease, and the previous tangent after that.  With z = tau * ||z||,
    Cramer's rule gives z = c / det [J; prev], c the cofactors of the
    bordering row, and det [J; w] = w . c for every w; so det [J; tau] =
    c . c / (||z|| det [J; prev]) has the sign of the matrix solved here.
    """
    J = np.asarray(J, dtype=float)
    rhs = np.zeros(J.shape[0] + 1)
    rhs[-1] = 1.0
    # J z = 0 and prev . z = 1 > 0, so z already points along prev
    out = _bordered_solve(J, prev, rhs, det_sign=True)
    if out is None:
        return None
    z, sign = out
    return z / np.linalg.norm(z), sign


def correct(hm: HomotopyMap, u_pred: np.ndarray, t_pred: float,
            tau: np.ndarray, cfg: TraceConfig, tol: float | None = None):
    """Newton iteration on {h = 0, tau . (v - v_pred) = 0} to ||h||_inf <= tol
    (default _CORRECTOR_TOL).

    Returns (u, t, iterations, residual, J) on success, J being the full
    (u, t)-Jacobian at the accepted point, or None on rejection (non-
    convergence, a non-finite residual, or near-singular linear algebra).
    t is clamped to [0, 1] throughout; excursions beyond are overshoot.
    With tau = e_t, which fixes t (the landing and a steep step), a step
    that does not lower ||h||_inf or leads to a non-finite residual is
    halved back from the last iterate; every evaluation counts against
    cfg.max_corrector_iters.
    """
    tol = _CORRECTOR_TOL if tol is None else tol
    d = hm.dim
    # only the row e_t; the first tangent of a plain map is -e_t
    fixed_t = tau[d] == 1.0 and not np.any(tau[:d])
    anchor = np.concatenate([u_pred, [min(max(t_pred, 0.0), 1.0)]])
    v = anchor.copy()
    base, base_res, step = v, np.inf, None  # the iterate a step is halved back to
    rhs = np.empty(d + 1)  # -(h, tau . (v - anchor)), refilled each iteration
    for it in range(cfg.max_corrector_iters + 1):
        t = float(v[d])
        try:
            r, J = hm.evaluate(v[:d], t)
            res = _inf_norm(r)
        except FloatingPointError:
            res = np.nan
        if res <= tol:
            return v[:d], t, it, res, J
        if it == cfg.max_corrector_iters:
            return None
        if fixed_t and step is not None and not res < base_res:
            step = step / 2
            v = base + step
            continue
        if not math.isfinite(res):
            return None
        np.negative(r, out=rhs[:d])
        rhs[d] = -(tau @ (v - anchor))
        step = _bordered_solve(J, tau, rhs)
        if step is None:
            return None
        base, base_res = v, res
        v = v + step
        v[d] = min(max(v[d], 0.0), 1.0)


def trace(hm: HomotopyMap, cfg: TraceConfig | None = None) -> TraceResult:
    """Follow the homotopy path from its start at t = 1 to the terminal level."""
    cfg = cfg or TraceConfig()
    t_end = hm.t_end
    # the plain map meets the full-sample SAA at t = 0 and is polished there
    land_tol = _POLISH_TOL if hm.M == 0 else _CORRECTOR_TOL
    d = hm.dim
    n = hm.n
    bm = hm.blended
    sys_ = bm.system
    # divergence guard: problem box widened to twice its width (state part only)
    half = (sys_.box_hi - sys_.box_lo) / 2.0
    guard_lo = sys_.box_lo - half
    guard_hi = sys_.box_hi + half

    evals0, jacs0 = bm.eval_counter, bm.jac_counter

    def point(u, t, step_len, iters, res):
        return PathPoint(u=u.copy(), t=t, step_len=step_len,
                         corrector_iters=iters, residual=res,
                         cum_sample_evals=bm.eval_counter - evals0,
                         cum_jac_evals=bm.jac_counter - jacs0)

    u = hm.start_point()
    t = 1.0
    r, J = hm.evaluate(u, t)
    path = [point(u, t, 0.0, 0, _inf_norm(r))]
    counters = {"predictor_steps": 0, "rejected_steps": 0,
                "corrector_iters_total": 0, "sample_evals": 0, "jac_evals": 0}

    def finish(status):
        # counted before the full-sample diagnostic pass, which is not solver work
        counters["sample_evals"] = bm.eval_counter - evals0
        counters["jac_evals"] = bm.jac_counter - jacs0
        saa = _inf_norm(bm.sample_average(bm.L, path[-1].u[:n]))
        return TraceResult(status=status, saa_residual=saa, path=path,
                           counters=counters, n=n)

    e_t = np.zeros(d + 1)
    e_t[d] = 1.0
    h = cfg.h0
    # the tangent and orientation at the last accepted point; a rejected
    # step reuses them
    first = tangent(J, -e_t)
    if first is None:
        return finish("stalled")
    tau, orient = first
    while counters["predictor_steps"] + counters["rejected_steps"] < cfg.max_steps:
        t_pred = t + h * tau[-1]
        # at or past the terminal level, or a step that would cross it: land
        landing = t <= t_end or (t_pred <= t_end and tau[-1] < 0)
        if landing:
            # from the tangent's extrapolation to t_end where it descends
            start = u + (t_end - t) / tau[-1] * tau[:d] if tau[-1] < 0 else u
            hit = correct(hm, start, t_end, e_t, cfg, land_tol)
        else:
            # a steep step holds t at t_pred; near a fold t must move
            u_pred = u + h * tau[:d]
            held = tau[-1] < _HOLD_T_BELOW
            hit = correct(hm, u_pred, t_pred, e_t if held else tau, cfg)
            new = None if hit is None else tangent(hit[4], tau)
            if held and new is not None and new[1] != orient:
                # past a turning point of t or on another branch, where the
                # tangent's border turns back: step on the tangent hyperplane
                hit = correct(hm, u_pred, t_pred, tau, cfg)
                new = None if hit is None else tangent(hit[4], tau)
            if new is None or new[0] @ tau < _MIN_COS:
                hit = None  # no tangent there, or it turns too far
        if hit is None:  # the step or the landing failed: shrink, retry
            counters["rejected_steps"] += 1
            h *= _SHRINK
            if h < _H_MIN:
                return finish("stalled")
            continue
        u, t, iters, res0, _ = hit
        if landing:
            path.append(point(u, t_end, 0.0, iters, res0))
            return finish("converged")
        counters["predictor_steps"] += 1
        counters["corrector_iters_total"] += iters
        path.append(point(u, t, h, iters, res0))
        if t >= 1.0:
            return finish("returned-to-start")
        if np.any(u[:n] < guard_lo) or np.any(u[:n] > guard_hi):
            return finish("diverged-out-of-box")
        if iters <= 3:
            h = min(_GROW * h, cfg.h_max)
        tau, orient = new
    return finish("max_steps")


def path_to_csv(result: TraceResult, schedule: NodeSchedule, path) -> None:
    """Trace export: step, t, ||u||, residual, step_len, corrector_iters,
    cumulative sample evaluations, the schedule's segment l at t with its
    sample size q_l, the samples one evaluation there costs, and cumulative
    per-sample Jacobian evaluations."""
    with open(path, "w") as fh:
        fh.write("step,t,norm_u,residual,step_len,corrector_iters,"
                 "cum_sample_evals,segment,q,cum_jac_evals\n")
        for i, p in enumerate(result.path):
            ell = schedule.blend(p.t)[0]
            fh.write(f"{i},{p.t:.17g},{np.linalg.norm(p.u):.17g},"
                     f"{p.residual:.17g},{p.step_len:.17g},{p.corrector_iters},"
                     f"{p.cum_sample_evals},{ell},{schedule.q[ell]},"
                     f"{p.cum_jac_evals}\n")
