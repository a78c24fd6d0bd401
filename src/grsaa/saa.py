"""Gradually reinforced sample-average map d(x, t) with derivatives.

On segment l the map blends the cumulative sample averages f^{l-1} and f^l,
f^l being the average over the first q_l samples, where the schedule pairs
each node t_l with its size q_l (q_0 = 0, so f^0 = 0):

    d(x, t) = (1 - theta_l(t)) f^{l-1}(x) + theta_l(t) f^l(x)

Because the first q_{l-1} samples are a prefix of the first q_l, one pass
over q_l samples yields both averages, hence d and its t-derivative; an
evaluation at (x, t) therefore costs exactly q_l single-sample residual
evaluations, which is the machine-independent efficiency metric used
throughout.  The one exception is t = 1, where theta = 0 puts no weight on
the q_1 samples: d = f^0 = 0 there, and the evaluation costs nothing.  That
one pass is the system's fused `jacobian` kernel, since every evaluation
also needs dd/dx = (1 - theta) J^{l-1} + theta J^l.  It is one weighted sum
sum_k w_k J_k of the per-sample Jacobians, so the kernel takes the weights w
and returns the residual rows with that (n, n) sum; the pass still counts
q_l per-sample Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import SampleSet
from .schedule import NodeSchedule

__all__ = ["StochasticSystem", "BlendedMap", "check_coercivity"]

# check_coercivity's test set: points drawn per box face (from seed 0) and
# the most xi's it tests
_FACE_POINTS = 256
_MAX_XI = 200

# Residual evaluators are batched over samples for speed:
#   residual(x, xis) -> F, (q, n) stacking f(x, xi_i) row-wise, stored
#       column-major (the .T of a C-contiguous (n, q) array): the blend's
#       sums over samples, F.sum(axis=0) and F[:q_lo].sum(axis=0), then each
#       run down n contiguous columns instead of across q short rows; a
#       row's bits may not depend on q, because evaluate reads f^{l-1} from
#       the head of a q_l pass and sample_average(l-1) makes its own pass
#   jacobian(x, xis, w) -> (F, J), J (n, n) = sum_k w_k df/dx(x, xi_k) for
#       weights w (q,); one fused pass whose F must equal residual(x, xis)
#       bit for bit, because the tracer reads F from here while the reported
#       saa_residual and the market check read residual
ResidualFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
JacobianFn = Callable[[np.ndarray, np.ndarray, np.ndarray],
                      tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class StochasticSystem:
    """A stochastic residual f(x, xi) with its x-Jacobian and domain box."""

    n: int
    residual: ResidualFn
    jacobian: JacobianFn
    box_lo: np.ndarray
    box_hi: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.box_lo, dtype=float)
        hi = np.asarray(self.box_hi, dtype=float)
        x0 = np.asarray(self.x0, dtype=float)
        if lo.shape != (self.n,) or hi.shape != (self.n,) or x0.shape != (self.n,):
            raise ValueError("box and reference point must have shape (n,)")
        if not np.all((lo < x0) & (x0 < hi)):
            raise ValueError("reference point x0 must lie strictly inside the box")
        object.__setattr__(self, "box_lo", lo)
        object.__setattr__(self, "box_hi", hi)
        object.__setattr__(self, "x0", x0)


@dataclass
class BlendedMap:
    """Binds a system to samples and a sample-size schedule.

    eval_counter counts single-sample residual evaluations made by evaluate
    and sample_average; jac_counter separately counts per-sample Jacobian
    evaluations (not part of the efficiency metric).
    """

    system: StochasticSystem
    samples: SampleSet
    schedule: NodeSchedule
    eval_counter: int = 0
    jac_counter: int = 0

    def __post_init__(self):
        if self.schedule.N != self.samples.N:
            raise ValueError("schedule terminal size must equal the sample count")

    @property
    def L(self) -> int:
        return self.schedule.L

    # -- residual passes ---------------------------------------------------

    def _residual_block(self, x: np.ndarray, q: int, w: np.ndarray | None = None):
        """(F (q, n), F.sum(axis=0), sum_k w_k J_k (n, n) or None) over the
        first q samples.

        One kernel call either way: `residual` for F alone, the fused
        `jacobian` pass when weights w (q,) are given.  The sum must be
        finite, as it is not when any row is NaN or infinite; only then are
        the rows scanned, to name the first bad one.  Each call adds q to
        eval_counter and, with w, q to jac_counter.
        """
        x = np.asarray(x, dtype=float)
        xis = self.samples.samples[:q]
        if w is not None:
            vals, jac = self.system.jacobian(x, xis, w)
        else:
            vals, jac = self.system.residual(x, xis), None
        vals = np.asarray(vals, dtype=float)
        total = vals.sum(axis=0)
        if not np.isfinite(total).all():
            bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
            raise FloatingPointError(
                f"non-finite residual at sample index {bad[0]} (x={x})" if bad.size
                else f"residual sum over {q} finite rows overflowed (x={x})")
        self.eval_counter += q
        if w is not None:
            self.jac_counter += q
        return vals, total, jac

    def sample_average(self, ell: int, x: np.ndarray) -> np.ndarray:
        """Average f^l(x) of the first q_l samples; f^0 is zero and free."""
        if not 0 <= ell <= self.L:
            raise ValueError(f"group index {ell} outside 0..{self.L}")
        if ell == 0:
            return np.zeros(self.system.n)
        q = self.schedule.q[ell]
        return self._residual_block(x, q)[1] / q

    # -- blended map and derivatives --------------------------------------

    def evaluate(self, x: np.ndarray, t: float):
        """(d, dd/dt, dd/dx) at (x, t) on the segment containing t.

        One pass of the system's fused `jacobian` kernel over the first q_l
        samples (none at t = 1, where theta = 0) gives d,
        dd/dt = theta_l'(t) (f^l - f^{l-1}), which is exactly (signed) zero
        at nodes, and dd/dx = sum_k w_k J_k, where w_k = theta/q_l on every
        row plus (1 - theta)/q_{l-1} on the first q_{l-1}.
        """
        x = np.asarray(x, dtype=float)
        ell, th, thp = self.schedule.blend(t)
        q_lo, q_hi = self.schedule.q[ell - 1], self.schedule.q[ell]
        # theta = 0 only at t = 1, where theta' = 0 too: the rows past q_lo
        # weigh nothing, so they are not evaluated, and f_hi, which is then
        # not the q_hi average, enters only times zero
        q = q_hi if th > 0 else q_lo
        # on segment 1, q_lo = 0: the head slices are empty and f^0 is +0.0
        w = np.full(q, th / q_hi)
        w[:q_lo] += (1.0 - th) / max(q_lo, 1)
        vals, total, dd_dx = self._residual_block(x, q, w)
        f_lo = vals[:q_lo].sum(axis=0) / max(q_lo, 1)
        f_hi = total / q_hi
        d = (1.0 - th) * f_lo + th * f_hi
        dd_dt = thp * (f_hi - f_lo)
        return d, dd_dt, dd_dx


def check_coercivity(bm: BlendedMap) -> dict:
    """Boundary diagnostic for the confinement condition.

    Evaluates (x - x0)^T f(x, xi) at _FACE_POINTS points drawn uniformly on
    each of the 2n faces of the domain box, the same points on every call,
    and at most _MAX_XI evenly spaced xi's.  The faces are drawn one at a
    time from one seeded stream, so memory does not grow with n^2.  A
    nonpositive minimum is a warning (the condition failed on the tested
    set), never an error.  The report is JSON-ready.
    """
    sys_ = bm.system
    n = sys_.n
    lo, hi, x0 = sys_.box_lo, sys_.box_hi, sys_.x0

    step = -(-bm.samples.N // _MAX_XI)
    xis = bm.samples.samples[::step]
    best, arg_x, arg_k = np.inf, None, None
    rng = np.random.default_rng(0)
    for face in range(2 * n):  # face 2j holds x_j = lo_j, face 2j + 1 x_j = hi_j
        points = rng.uniform(lo, hi, size=(_FACE_POINTS, n))
        j = face // 2
        points[:, j] = hi[j] if face % 2 else lo[j]
        for x in points:
            inner = np.asarray(sys_.residual(x, xis)) @ (x - x0)
            k = int(np.argmin(inner))
            if inner[k] < best:
                best, arg_x, arg_k = float(inner[k]), x.tolist(), k * step
    return {
        "min_inner_product": best,
        "warning": best <= 0.0,
        "boundary_points": 2 * n * _FACE_POINTS,
        "samples_tested": xis.shape[0],
        "argmin_x": arg_x,
        "argmin_sample_index": arg_k,
    }
