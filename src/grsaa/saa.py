"""Gradually reinforced sample-average map d(x, t) with derivatives.

On segment l the map blends the cumulative sample averages f^{l-1} and f^l:

    d(x, t) = (1 - theta_l(t)) f^{l-1}(x) + theta_l(t) f^l(x)

Because the first q_{l-1} samples are a prefix of the first q_l, one pass
over q_l samples yields both averages, hence d and its t-derivative; an
evaluation at (x, t) therefore costs exactly q_l single-sample residual
evaluations, which is the machine-independent efficiency metric used
throughout, plus q_l per-sample Jacobians when dd/dx is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import Partition, SampleSet
from .schedule import NodeSchedule, segment_of, theta, theta_prime

__all__ = ["StochasticSystem", "BlendedMap", "fd_jacobian_batch", "check_coercivity"]

# Largest number of boundary points check_coercivity may enumerate.
COERCIVITY_MAX_POINTS = 10 ** 5

# Residual evaluators are batched over samples for speed:
#   residual(x, xis) -> (q, n) stacking f(x, xi_i) row-wise
#   jacobian(x, xis) -> (q, n, n) stacking df/dx(x, xi_i)
ResidualFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
JacobianFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def fd_jacobian_batch(residual: ResidualFn, rel_step: float = 1e-7) -> JacobianFn:
    """Central finite-difference fallback for the per-sample x-Jacobian.

    Provided for problems without analytic derivatives; results produced with
    it are flagged by the owning system (fd_jacobian=True).
    """

    def jac(x: np.ndarray, xis: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = x.size
        q = xis.shape[0]
        out = np.empty((q, n, n))
        for j in range(n):
            h = rel_step * max(1.0, abs(x[j]))
            xp = x.copy(); xp[j] += h
            xm = x.copy(); xm[j] -= h
            out[:, :, j] = (residual(xp, xis) - residual(xm, xis)) / (2.0 * h)
        return out

    return jac


@dataclass(frozen=True)
class StochasticSystem:
    """A stochastic residual f(x, xi) with its x-Jacobian and domain box."""

    n: int
    m: int
    residual: ResidualFn
    jacobian: JacobianFn | None
    box_lo: np.ndarray
    box_hi: np.ndarray
    x0: np.ndarray
    name: str = ""
    fd_jacobian: bool = False

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
        if self.jacobian is None:
            object.__setattr__(self, "jacobian", fd_jacobian_batch(self.residual))
            object.__setattr__(self, "fd_jacobian", True)


@dataclass
class BlendedMap:
    """Binds a system to samples, a partition and a node schedule.

    eval_counter counts single-sample residual evaluations made by evaluate
    and sample_average; jac_counter separately counts per-sample Jacobian
    evaluations (not part of the efficiency metric).
    """

    system: StochasticSystem
    samples: SampleSet
    partition: Partition
    schedule: NodeSchedule
    eval_counter: int = 0
    jac_counter: int = 0

    def __post_init__(self):
        if self.partition.L != self.schedule.L:
            raise ValueError("partition and schedule must have the same L")
        if self.partition.N != self.samples.N:
            raise ValueError("partition terminal size must equal the sample count")
        if self.samples.m != self.system.m:
            raise ValueError("sample dimension does not match the system")

    @property
    def L(self) -> int:
        return self.partition.L

    # -- residual passes ---------------------------------------------------

    def _residual_block(self, x: np.ndarray, q: int) -> np.ndarray:
        vals = self.system.residual(np.asarray(x, dtype=float),
                                    self.samples.samples[:q])
        vals = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals).all(axis=1))[0])
            raise FloatingPointError(
                f"non-finite residual at sample index {bad} (x={x})")
        self.eval_counter += q
        return vals

    def sample_average(self, ell: int, x: np.ndarray) -> np.ndarray:
        """Cumulative group average f^l(x); f^0 is identically zero and free."""
        if not 0 <= ell <= self.L:
            raise ValueError(f"group index {ell} outside 0..{self.L}")
        if ell == 0:
            return np.zeros(self.system.n)
        q = self.partition.q[ell - 1]
        return self._residual_block(x, q).sum(axis=0) / q

    # -- blended map and derivatives --------------------------------------

    def evaluate(self, x: np.ndarray, t: float, jac: bool = True):
        """(d, dd/dt, dd/dx) at (x, t) on the segment containing t.

        One residual pass over the first q_l samples gives d and
        dd/dt = theta_l'(t) (f^l - f^{l-1}), which is exactly zero at nodes;
        with jac, one Jacobian pass over the same samples gives dd/dx (None
        otherwise).
        """
        x = np.asarray(x, dtype=float)
        ell = segment_of(t, self.schedule)
        th = theta(ell, t, self.schedule)
        thp = theta_prime(ell, t, self.schedule)
        q_hi = self.partition.q[ell - 1]
        q_lo = self.partition.q[ell - 2] if ell >= 2 else 0
        # reduced to its two means before the Jacobian block is allocated
        f_lo, f_hi = _head_and_mean(self._residual_block(x, q_hi), q_lo)
        d = (1.0 - th) * f_lo + th * f_hi
        dd_dt = np.zeros(self.system.n) if thp == 0.0 else thp * (f_hi - f_lo)
        if not jac:
            return d, dd_dt, None
        jacs = np.asarray(self.system.jacobian(x, self.samples.samples[:q_hi]))
        self.jac_counter += q_hi
        j_lo, j_hi = _head_and_mean(jacs, q_lo)
        return d, dd_dt, (1.0 - th) * j_lo + th * j_hi


def _head_and_mean(block: np.ndarray, q_lo: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean of the first q_lo rows, mean of all rows); an empty head is 0."""
    head = (block[:q_lo].sum(axis=0) / q_lo if q_lo > 0
            else np.zeros(block.shape[1:]))
    return head, block.sum(axis=0) / block.shape[0]


def check_coercivity(bm: BlendedMap, grid_density: int = 8,
                     max_samples: int = 200) -> dict:
    """Boundary diagnostic for the confinement condition.

    Evaluates (x - x0)^T f(x, xi) over a deterministic grid on the faces of
    the domain box and an evenly spaced subsample of the xi's.  A nonpositive
    minimum is a warning (the condition failed on the tested set), never an
    error.  The 2n g^(n-1) face points are counted before any is built: g is
    lowered from grid_density to the largest value >= 2 within
    COERCIVITY_MAX_POINTS, and a ValueError is raised if even g = 2 exceeds
    it.  The report gives the g used.
    """
    sys_ = bm.system
    n = sys_.n
    lo, hi, x0 = sys_.box_lo, sys_.box_hi, sys_.x0
    while grid_density > 2 and 2 * n * grid_density ** (n - 1) > COERCIVITY_MAX_POINTS:
        grid_density -= 1
    points = 2 * n * grid_density ** (n - 1)
    if points > COERCIVITY_MAX_POINTS:
        raise ValueError(
            f"coercivity grid needs {points} boundary points at density "
            f"{grid_density} for n={n}, above the budget of {COERCIVITY_MAX_POINTS}")
    axes = [np.linspace(lo[j], hi[j], grid_density) for j in range(n)]
    pts = []
    for face in range(n):
        for bound in (lo[face], hi[face]):
            grid_axes = [axes[j] if j != face else np.array([bound]) for j in range(n)]
            mesh = np.meshgrid(*grid_axes, indexing="ij")
            pts.append(np.stack([g.ravel() for g in mesh], axis=1))
    boundary = np.unique(np.concatenate(pts, axis=0), axis=0)

    step = max(1, bm.samples.N // max_samples)
    xis = bm.samples.samples[::step]
    best = np.inf
    arg = (None, None)
    for x in boundary:
        vals = np.asarray(sys_.residual(x, xis))  # (k, n)
        inner = vals @ (x - x0)
        k = int(np.argmin(inner))
        if inner[k] < best:
            best = float(inner[k])
            arg = (x.copy(), k * step)
    return {
        "min_inner_product": best,
        "argmin": arg,
        "warning": best <= 0.0,
        "boundary_points": len(boundary),
        "grid_density": grid_density,
        "samples_tested": xis.shape[0],
    }
