"""The traced homotopy map: one formula, whose form follows from the
problem's constraints B x <= b (M rows; M = 0 without constraints).

    block 1: (1-t) F(x, y, t) + t (x - x0) - t(1-t) alpha
    block 2: B x + pos(y, t) - b

F is the problem's operator.  With M = 0 the unknown is x alone, block 2 is
empty and F = d(x, t), the blended sample-average map, so the map at t = 0
is the full-sample SAA.  With constraints F = -d + B^T neg(y, t): the
convention d = B^T lambda, lambda = neg(y, t).  It states the market
equilibrium, where excess demand equals B^T z; the box-constrained svi needs
d + B^T lambda instead and is traced with the wrong sign (ROADMAP item 2).
alpha bends the interior of the path in either form and vanishes at both
ends.

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

# the map's transform exponent kappa0; 2 is the least that keeps the
# transform C^1 at its kink
KAPPA0 = 2


def transform_derivs(y: np.ndarray, t: float, kappa0: int) -> dict:
    """Values and all first partials of the (neg, pos) pair, for every t >= 0.

    Returns keys neg, pos, dneg_dy, dpos_dy, dneg_dt, dpos_dt (each (M,),
    the y-derivatives being the diagonals of the componentwise Jacobians).
    The cancellation-prone factor is rewritten through the product identity
    a_neg * a_pos = t, so that one formula also gives the exact limit at
    t = 0: a_neg = max(-y, 0), a_pos = max(y, 0).
    """
    if t < 0:
        raise ValueError("transform requires t >= 0")
    if kappa0 < 2:
        raise ValueError("kappa0 must be at least 2")
    y = np.asarray(y, dtype=float)
    r = np.sqrt(y * y + 4.0 * t)
    a_big = (r + np.abs(y)) / 2.0  # >= sqrt(t), no cancellation
    # r and a_big vanish only at y = 0, t = 0, where their numerators do too
    a_small = t / np.where(a_big > 0, a_big, 1.0)
    r = np.where(r > 0, r, 1.0)
    a_pos = np.where(y >= 0, a_big, a_small)
    a_neg = np.where(y >= 0, a_small, a_big)
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
                  kappa0: int) -> np.ndarray:
    """The unique y with B x0 + pos(y, 1) = b (componentwise closed form).

    pos(y, 1) = c inverts to y = c^(1/kappa0) - 1 / c^(1/kappa0); requires
    c = b - B x0 > 0, i.e. a strictly interior start.
    """
    c = np.asarray(b, dtype=float) - np.asarray(B, dtype=float) @ np.asarray(x0, dtype=float)
    if np.any(c <= 0):
        raise ValueError("start point is not strictly interior: b - B x0 must be > 0")
    u = c ** (1.0 / kappa0)
    return u - 1.0 / u


@dataclass
class HomotopyMap:
    """The map traced by the predictor-corrector: values and full Jacobian.

    The unknowns are u = (x, y), y holding one transform variable per
    constraint row; without constraint data (B and b None) B is the empty
    (0, n) matrix, so M = 0 and u = x.
    """

    blended: BlendedMap
    alpha: np.ndarray | None = None
    B: np.ndarray | None = None
    b: np.ndarray | None = None

    def __post_init__(self):
        n = self.blended.system.n
        self.alpha = np.zeros(n) if self.alpha is None else np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (n,):
            raise ValueError(f"alpha must have {n} entries, one per state "
                             f"component; got shape {self.alpha.shape}")
        if not np.all(np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite; got {self.alpha}")
        if (self.B is None) != (self.b is None):
            raise ValueError("constraint data needs both B and b")
        self.B = np.zeros((0, n)) if self.B is None else np.asarray(self.B, dtype=float)
        self.b = np.zeros(0) if self.b is None else np.asarray(self.b, dtype=float)
        if self.B.ndim != 2 or self.B.shape[1] != n or self.b.shape != (self.M,):
            raise ValueError("constraint dimensions do not match the system")

    @property
    def n(self) -> int:
        return self.blended.system.n

    @property
    def M(self) -> int:
        return self.B.shape[0]

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
        """The unique solution at t = 1: x0, with the y that solves block 2."""
        return np.concatenate([self.x0, solve_start_y(self.B, self.b, self.x0, KAPPA0)])

    def evaluate(self, u: np.ndarray, t: float):
        """(h(u, t), J) from one pass of the blended map.

        J is the dim x (dim + 1) Jacobian in (u, t), the last column being
        the t-derivative.  Both are filled in place, block by block.
        """
        u = np.asarray(u, dtype=float)
        M, n = self.B.shape
        D = n + M
        x, y = u[:n], u[n:]
        d, dd_dt, dd_dx = self.blended.evaluate(x, t)
        # the operator F and its partials; the constraint terms only for M > 0
        F, dF_dt, dF_dx = d, dd_dt, dd_dx
        if M:
            tr = transform_derivs(y, t, KAPPA0)
            F = -d + self.B.T @ tr["neg"]
            dF_dt = -dd_dt + self.B.T @ tr["dneg_dt"]
            dF_dx = -dd_dx
        s = 1.0 - t
        dx = x - self.x0
        h = np.empty(D)
        J = np.empty((D, D + 1))  # every block is assigned below
        # block 1: s F + t dx - t s alpha
        h1 = np.multiply(F, s, out=h[:n])
        h1 += t * dx
        h1 -= t * s * self.alpha
        # s dF_dx + t I; adding +0.0 everywhere, as t * 0.0 does off the
        # diagonal, turns a -0.0 product into +0.0
        Jx = np.multiply(dF_dx, s, out=J[:n, :n])
        Jx += 0.0
        J.reshape(-1)[:n * (D + 2):D + 2] += t
        # -F + s dF_dt + dx - (1 - 2t) alpha
        Jt = np.multiply(dF_dt, s, out=J[:n, D])
        Jt -= F
        Jt += dx
        Jt -= (1.0 - 2.0 * t) * self.alpha
        if M:
            J[:n, n:D] = s * (self.B.T * tr["dneg_dy"])
            # block 2 rows
            h[n:] = self.B @ x + tr["pos"] - self.b
            J[n:, :n] = self.B
            J[n:, n:D] = np.diag(tr["dpos_dy"])
            J[n:, D] = tr["dpos_dt"]
        return h, J
