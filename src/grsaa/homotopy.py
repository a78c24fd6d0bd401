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

    neg(y, t) = ((sqrt(y^2 + 4t) - y) / 2)^KAPPA0
    pos(y, t) = ((sqrt(y^2 + 4t) + y) / 2)^KAPPA0

satisfies neg * pos = t^KAPPA0 componentwise, so a zero of the augmented
system carries the smoothed complementarity condition for t > 0 and exact
complementarity in the limit t = 0.  One kernel serves both constrained
benchmarks; problems that state their multipliers with the opposite sign use
the orientation y -> -y (which swaps neg and pos).  The transform is not
differentiable at t = 0 on the active set, so with constraints the trace
ends at a small positive level (HomotopyMap.t_end).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .saa import BlendedMap

__all__ = ["HomotopyMap", "transform_derivs", "solve_start_y"]

# the map's transform exponent; 2 is the least that keeps the transform C^1
# at its kink
KAPPA0 = 2


def transform_derivs(y: np.ndarray, t: float) -> dict:
    """Values and all first partials of the (neg, pos) pair, for every t >= 0.

    Returns keys neg, pos, dneg_dy, dpos_dy, dneg_dt, dpos_dt (each (M,),
    the y-derivatives being the diagonals of the componentwise Jacobians).
    The cancellation-prone factor is rewritten through the product identity
    a_neg * a_pos = t, so that one formula also gives the exact limit at
    t = 0: a_neg = max(-y, 0), a_pos = max(y, 0).
    """
    if t < 0:
        raise ValueError("transform requires t >= 0")
    y = np.asarray(y, dtype=float)
    r = y * y
    r += 4.0 * t
    np.sqrt(r, out=r)
    # (a_big; a_small) as the rows of one array, so that each formula below
    # is one call for both members of the pair
    a = np.empty((2,) + y.shape)
    big = np.add(r, np.abs(y), out=a[0])
    big /= 2.0  # >= sqrt(t), no cancellation
    if t > 0:
        np.divide(t, big, out=a[1])
    else:
        # r and a_big vanish only at y = 0, t = 0, where their numerators
        # do too
        np.divide(t, np.where(big > 0, big, 1.0), out=a[1])
        r = np.where(r > 0, r, 1.0)
    a = np.where(y >= 0, a[::-1], a)  # (a_neg; a_pos)
    val = a ** KAPPA0
    dy = val * KAPPA0
    np.negative(dy[0], out=dy[0])
    dy /= r
    dt = a ** (KAPPA0 - 1) * KAPPA0
    dt /= r
    return {"neg": val[0], "pos": val[1], "dneg_dy": dy[0], "dpos_dy": dy[1],
            "dneg_dt": dt[0], "dpos_dt": dt[1]}


def solve_start_y(B: np.ndarray, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The unique y with B x0 + pos(y, 1) = b (componentwise closed form).

    pos(y, 1) = c inverts to y = c^(1/KAPPA0) - 1 / c^(1/KAPPA0); requires
    c = b - B x0 > 0, i.e. a strictly interior start.
    """
    c = np.asarray(b, dtype=float) - np.asarray(B, dtype=float) @ np.asarray(x0, dtype=float)
    if np.any(c <= 0):
        raise ValueError("start point is not strictly interior: b - B x0 must be > 0")
    u = c ** (1.0 / KAPPA0)
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
        return np.concatenate([self.x0, solve_start_y(self.B, self.b, self.x0)])

    @cached_property
    def _J_constrained(self) -> np.ndarray:
        """The parts of a constrained J that do not depend on (u, t): block
        2's B columns, with zeros off the diagonal of its y block; made on
        the first evaluation rather than at set-up.  Every other entry is
        assigned on each evaluation."""
        M, n = self.B.shape
        J = np.zeros((n + M, n + M + 1))
        J[n:, :n] = self.B
        return J

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
        s = 1.0 - t
        # the operator F and its partials: d itself for M = 0; with
        # constraints F = B^T neg - d, dF/dt = B^T dneg_dt - dd_dt and
        # dF/dx = -dd/dx, whose product with s is dd/dx times -s
        F, dF_dt, s_x = d, dd_dt, s
        if M:
            tr = transform_derivs(y, t)
            Bt = self.B.T
            F = Bt @ tr["neg"]
            F -= d
            dF_dt = Bt @ tr["dneg_dt"]
            dF_dt -= dd_dt
            s_x = -s
            J = self._J_constrained.copy()
        else:
            J = np.empty((D, D + 1))  # every block is assigned below
        dx = x - self.x0
        h = np.empty(D)
        # block 1: s F + t dx - t s alpha
        h1 = np.multiply(F, s, out=h[:n])
        h1 += t * dx
        h1 -= t * s * self.alpha
        # s dF_dx + t I; adding +0.0 everywhere, as t * 0.0 does off the
        # diagonal, turns a -0.0 product into +0.0
        Jx = np.multiply(dd_dx, s_x, out=J[:n, :n])
        Jx += 0.0
        J.reshape(-1)[:n * (D + 2):D + 2] += t
        # -F + s dF_dt + dx - (1 - 2t) alpha
        Jt = np.multiply(dF_dt, s, out=J[:n, D])
        Jt -= F
        Jt += dx
        Jt -= (1.0 - 2.0 * t) * self.alpha
        if M:
            Jy = np.multiply(Bt, tr["dneg_dy"], out=J[:n, n:D])
            Jy *= s
            # block 2 rows: B x + pos - b; J holds B and the zeros already
            h2 = np.matmul(self.B, x, out=h[n:])
            h2 += tr["pos"]
            h2 -= self.b
            J.reshape(-1)[n * (D + 2)::D + 2] = tr["dpos_dy"]
            J[n:, D] = tr["dpos_dt"]
        return h, J
