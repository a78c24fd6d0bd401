"""The sample-size schedule: descending homotopy nodes, the sample size that
goes with each node, and the sin^2 blending ramp.

A schedule holds nodes 1 = t_0 > t_1 > ... > t_L = 0 and cumulative sample
sizes 0 = q_0 < q_1 < ... < q_L = N: at node t_l the map is the average of
the first q_l samples (q_0 = 0, the empty average, is the zero map at t = 1).
On segment [t_l, t_{l-1}] the ramp

    theta_l(t) = sin^2( (t - t_{l-1}) / (t_l - t_{l-1}) * pi/2 )

carries the blend from the q_{l-1}-sample average to the q_l-sample average;
its derivative vanishes at both endpoints, which is what makes the piecewise
blend C^1 across nodes.  `NodeSchedule.blend(t)` answers the one question the
blended map asks, (l, theta_l(t), theta_l'(t)), with a binary search over the
nodes.  Endpoint values of theta and theta' are returned by exact branch
(0.0 / 1.0 / 0.0), never by trig evaluation, so the join invariants are
machine-exact.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

__all__ = ["NodeSchedule", "make_schedule"]

# rate of the harmonic nodes t_l = 1/(1 + tau0*l)
_HARMONIC_TAU0 = 7000.0


@dataclass(frozen=True)
class NodeSchedule:
    nodes: tuple[float, ...]  # (t_0, ..., t_L), strictly decreasing, t_0=1, t_L=0
    q: tuple[int, ...]  # (q_0, ..., q_L), strictly increasing, q_0=0, q_L=N

    def __post_init__(self):
        nodes = tuple(float(v) for v in self.nodes)
        if len(nodes) < 2:
            raise ValueError("a schedule needs at least two nodes")
        if nodes[0] != 1.0 or nodes[-1] != 0.0:
            raise ValueError("schedule must start at 1 and end at 0 exactly")
        if not all(b < a for a, b in zip(nodes, nodes[1:])):  # NaN fails too
            raise ValueError("schedule nodes must be strictly decreasing")
        q = tuple(int(v) for v in self.q)
        if len(q) != len(nodes):
            raise ValueError(f"need one sample size per node: {len(q)} sizes "
                             f"for {len(nodes)} nodes")
        if q[0] != 0:
            raise ValueError("the sample size at t = 1 must be 0")
        if not all(b > a for a, b in zip(q, q[1:])):
            raise ValueError("sample sizes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "q", q)

    @property
    def L(self) -> int:
        return len(self.nodes) - 1

    @property
    def N(self) -> int:
        return self.q[-1]

    def blend(self, t: float) -> tuple[int, float, float]:
        """(l, theta_l(t), theta_l'(t)) on the segment [t_l, t_{l-1}] holding t.

        At an interior node t = t_l the lower segment l is returned; the blend
        value is identical from both sides, so the tie rule is observationally
        neutral.  theta is 0 at t_{l-1} and 1 at t_l, and theta' is exactly
        zero at both.
        """
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t={t} outside [0, 1]")
        # first l with t_l <= t; t = 1 belongs to segment 1
        ell = max(bisect_left(self.nodes, -t, key=operator.neg), 1)
        tl, tl1 = self.nodes[ell], self.nodes[ell - 1]
        if t == tl1:
            return ell, 0.0, 0.0
        if t == tl:
            return ell, 1.0, 0.0
        s = (t - tl1) / (tl - tl1)
        return (ell, math.sin(s * math.pi / 2.0) ** 2,
                math.pi / (2.0 * (tl - tl1)) * math.sin(s * math.pi))


def make_schedule(kind: str, N: int, L: int) -> NodeSchedule:
    """The schedule of L segments over N samples, nodes of one of two kinds.

    uniform   t_l = 1 - l/L
    harmonic  interior t_l = 1/(1 + 7000 l), terminal node forced to 0

    Sample sizes are equal steps q_l = round(l*N/L), pinned to q_L = N.  For
    1 <= L <= N consecutive values differ by N/L >= 1, so they strictly
    increase, and q_{L-1} = round(N - N/L) <= N - 1.  With N = tau1*L the
    quotient is exact, q_l = tau1*l: the paper's linear group growth.
    """
    if L < 1 or L > N:
        raise ValueError(f"need 1 <= L <= N, got L={L}, N={N}")
    if kind == "uniform":
        nodes = [1.0 - ell / L for ell in range(L + 1)]
    elif kind == "harmonic":
        nodes = ([1.0] + [1.0 / (1.0 + _HARMONIC_TAU0 * ell) for ell in range(1, L)]
                 + [0.0])
    else:
        raise ValueError(f"unknown schedule kind: {kind!r}")
    q = [int(round(ell * N / L)) for ell in range(L + 1)]
    q[-1] = N
    return NodeSchedule(nodes=tuple(nodes), q=tuple(q))
