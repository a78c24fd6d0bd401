"""The traced homotopy map.  Its form follows from the problem's
constraints B x <= b (M rows):

M = 0   h(x, t) = (1-t) d(x, t) + t (x - x0) - t(1-t) alpha
M > 0   block 1: (1-t) (d(x, t) - B^T neg(y, t)) - t (x - x0)
        block 2: B x + pos(y, t) - b

The smoothed complementarity pair

    neg(y, t) = ((sqrt(y^2 + 4t) - y) / 2)^kappa0
    pos(y, t) = ((sqrt(y^2 + 4t) + y) / 2)^kappa0

satisfies neg * pos = t^kappa0 componentwise, so a zero of the augmented
system carries the smoothed complementarity condition for t > 0 and exact
complementarity in the limit t = 0.  One kernel serves both constrained
benchmarks; problems that state their multipliers with the opposite sign use
the orientation y -> -y (which swaps neg and pos).  The transform is not
differentiable at t = 0 on the active set, so with constraints the trace
ends at a small positive level (HomotopyMap.t_end).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .saa import BlendedMap

__all__ = ["HomotopyMap", "transform_derivs", "solve_start_y"]


def _transform_factors(y: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(y^2+4t) -/+ y)/2 with the cancellation-prone branch rewritten
    through the product identity a_neg * a_pos = t."""
    r = np.sqrt(y * y + 4.0 * t)
    a_big = (r + np.abs(y)) / 2.0  # >= sqrt(t) > 0, no cancellation
    a_small = t / a_big
    a_pos = np.where(y >= 0, a_big, a_small)
    a_neg = np.where(y >= 0, a_small, a_big)
    return a_neg, a_pos


def transform_derivs(y: np.ndarray, t: float, kappa0: int) -> dict:
    """Values and all first partials of the (neg, pos) pair.

    Returns keys neg, pos, dneg_dy, dpos_dy, dneg_dt, dpos_dt (each (M,),
    the y-derivatives being the diagonals of the componentwise Jacobians);
    t = 0 uses the exact limit form.
    """
    if t < 0:
        raise ValueError("transform requires t >= 0")
    if kappa0 < 2:
        raise ValueError("kappa0 must be at least 2")
    y = np.asarray(y, dtype=float)
    if t == 0.0:
        a_neg = np.maximum(-y, 0.0)
        a_pos = np.maximum(y, 0.0)
        neg = a_neg ** kappa0
        pos = a_pos ** kappa0
        # kappa0 >= 2 makes the power transform C^1 at the kink
        dneg_dy = -kappa0 * a_neg ** (kappa0 - 1)
        dpos_dy = kappa0 * a_pos ** (kappa0 - 1)
        with np.errstate(divide="ignore"):
            inv_r = np.where(y != 0.0, 1.0 / np.abs(y), 0.0)
        dneg_dt = kappa0 * a_neg ** (kappa0 - 1) * inv_r
        dpos_dt = kappa0 * a_pos ** (kappa0 - 1) * inv_r
        return {"neg": neg, "pos": pos, "dneg_dy": dneg_dy, "dpos_dy": dpos_dy,
                "dneg_dt": dneg_dt, "dpos_dt": dpos_dt}
    r = np.sqrt(y * y + 4.0 * t)
    a_neg, a_pos = _transform_factors(y, t)
    neg = a_neg ** kappa0
    pos = a_pos ** kappa0
    return {
        "neg": neg,
        "pos": pos,
        "dneg_dy": -kappa0 * neg / r,
        "dpos_dy": kappa0 * pos / r,
        "dneg_dt": kappa0 * a_neg ** (kappa0 - 1) / r,
        "dpos_dt": kappa0 * a_pos ** (kappa0 - 1) / r,
    }


def solve_start_y(B: np.ndarray, b: np.ndarray, x0: np.ndarray,
                  kappa0: int, t: float = 1.0) -> np.ndarray:
    """The unique y with B x0 + pos(y, t) = b (componentwise closed form).

    pos(y, t) = c inverts to y = c^(1/kappa0) - t / c^(1/kappa0); requires
    c = b - B x0 > 0, i.e. a strictly interior start.
    """
    c = np.asarray(b, dtype=float) - np.asarray(B, dtype=float) @ np.asarray(x0, dtype=float)
    if np.any(c <= 0):
        raise ValueError("start point is not strictly interior: b - B x0 must be > 0")
    u = c ** (1.0 / kappa0)
    return u - t / u


@dataclass
class HomotopyMap:
    """The map traced by the predictor-corrector: values and full Jacobian.

    Without constraint data (B and b None) M = 0; with it the unknowns are
    (x, y), y holding one transform variable per constraint row.
    """

    blended: BlendedMap
    alpha: np.ndarray | None = None
    B: np.ndarray | None = None
    b: np.ndarray | None = None
    kappa0: int = 2

    def __post_init__(self):
        n = self.blended.system.n
        if self.alpha is None:
            self.alpha = np.zeros(n)
        self.alpha = np.asarray(self.alpha, dtype=float)
        if (self.B is None) != (self.b is None):
            raise ValueError("constraint data needs both B and b")
        if self.B is not None:
            self.B = np.asarray(self.B, dtype=float)
            self.b = np.asarray(self.b, dtype=float)
            if self.kappa0 < 2:
                raise ValueError("kappa0 must be at least 2")
            if self.B.shape[1] != n or self.b.shape != (self.M,):
                raise ValueError("constraint dimensions do not match the system")

    @property
    def n(self) -> int:
        return self.blended.system.n

    @property
    def M(self) -> int:
        return 0 if self.B is None else self.B.shape[0]

    @property
    def dim(self) -> int:
        """Total unknown dimension n + M."""
        return self.n + self.M

    @property
    def x0(self) -> np.ndarray:
        return self.blended.system.x0

    @property
    def t_end(self) -> float:
        """Terminal level: 0, where the plain map is the full-sample SAA, or
        1e-8 with constraints, where the transform is still differentiable."""
        return 0.0 if self.M == 0 else 1e-8

    def start_point(self) -> np.ndarray:
        """The unique solution at t = 1."""
        if self.M == 0:
            return self.x0.copy()
        y1 = solve_start_y(self.B, self.b, self.x0, self.kappa0, t=1.0)
        return np.concatenate([self.x0, y1])

    def evaluate(self, u: np.ndarray, t: float, jac: bool = True):
        """(h(u, t), J) from one pass of the blended map.

        J is the dim x (dim + 1) Jacobian in (u, t), the last column being
        the t-derivative, or None without jac.  The plain map at t = 1 is
        the translation x - x0 and needs no sampling unless J is requested.
        """
        u = np.asarray(u, dtype=float)
        n, M = self.n, self.M
        x, y = u[:n], u[n:]
        if M == 0:
            if t == 1.0 and not jac:
                return x - self.x0, None
            d, dd_dt, dd_dx = self.blended.evaluate(x, t, jac)
            if t == 1.0:
                h = x - self.x0
            elif t == 0.0:
                h = d
            else:
                h = (1.0 - t) * d + t * (x - self.x0) - t * (1.0 - t) * self.alpha
            if not jac:
                return h, None
            J = np.empty((n, n + 1))
            J[:, :n] = (1.0 - t) * dd_dx + t * np.eye(n)
            J[:, n] = (-d + (1.0 - t) * dd_dt + (x - self.x0)
                       - (1.0 - 2.0 * t) * self.alpha)
            return h, J
        tr = transform_derivs(y, t, self.kappa0)
        d, dd_dt, dd_dx = self.blended.evaluate(x, t, jac)
        block1 = (1.0 - t) * (d - self.B.T @ tr["neg"]) - t * (x - self.x0)
        block2 = self.B @ x + tr["pos"] - self.b
        h = np.concatenate([block1, block2])
        if not jac:
            return h, None
        J = np.zeros((n + M, n + M + 1))
        # block 1 rows
        J[:n, :n] = (1.0 - t) * dd_dx - t * np.eye(n)
        J[:n, n:n + M] = -(1.0 - t) * (self.B.T * tr["dneg_dy"])
        J[:n, n + M] = (-(d - self.B.T @ tr["neg"])
                        + (1.0 - t) * (dd_dt - self.B.T @ tr["dneg_dt"])
                        - (x - self.x0))
        # block 2 rows
        J[n:, :n] = self.B
        J[n:, n:n + M] = np.diag(tr["dpos_dy"])
        J[n:, n + M] = tr["dpos_dt"]
        return h, J
