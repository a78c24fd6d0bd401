"""Descending homotopy node sequences and the sin^2 blending ramp.

A schedule holds nodes 1 = t_0 > t_1 > ... > t_L = 0.  On segment
[t_l, t_{l-1}] the ramp

    theta_l(t) = sin^2( (t - t_{l-1}) / (t_l - t_{l-1}) * pi/2 )

carries the blend from the (l-1)-group average to the l-group average; its
derivative vanishes at both endpoints, which is what makes the piecewise
blend C^1 across nodes.  Endpoint values of theta and theta' are returned by
exact branch (0.0 / 1.0 / 0.0), never by trig evaluation, so the join
invariants are machine-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NodeSchedule", "make_schedule", "segment_of", "theta", "theta_prime"]

# random-descending nodes are rejected if closer than this to each other or
# to {0, 1}: a degenerate segment makes theta' unbounded
_MIN_GAP = 1e-9


@dataclass(frozen=True)
class NodeSchedule:
    nodes: tuple[float, ...]  # (t_0, ..., t_L), strictly decreasing, t_0=1, t_L=0

    def __post_init__(self):
        nodes = tuple(float(v) for v in self.nodes)
        if len(nodes) < 2:
            raise ValueError("a schedule needs at least two nodes")
        if nodes[0] != 1.0 or nodes[-1] != 0.0:
            raise ValueError("schedule must start at 1 and end at 0 exactly")
        if any(b >= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("schedule nodes must be strictly decreasing")
        object.__setattr__(self, "nodes", nodes)
        # ascending copy for segment lookup
        object.__setattr__(self, "_asc", np.asarray(nodes[::-1], dtype=float))

    @property
    def L(self) -> int:
        return len(self.nodes) - 1


def make_schedule(kind: str, L: int, seed: int | None = None,
                  tau0: float | None = None) -> NodeSchedule:
    """Build a node schedule of one of the three supported kinds.

    uniform           t_l = 1 - l/L
    random-descending L-1 interior nodes drawn uniformly from (0,1), sorted;
                      draws violating the minimum gap are redrawn
    harmonic          interior t_l = 1/(1 + tau0*l), terminal node forced to 0
    """
    if L < 1:
        raise ValueError("L must be at least 1")
    if kind == "uniform":
        nodes = [1.0 - ell / L for ell in range(L + 1)]
        nodes[0], nodes[-1] = 1.0, 0.0
    elif kind == "random-descending":
        if seed is None:
            raise ValueError("random-descending schedule requires a seed")
        rng = np.random.Generator(np.random.PCG64(seed))
        for _ in range(1000):
            interior = np.sort(rng.random(L - 1))[::-1]
            gaps = np.diff(np.concatenate(([1.0], interior, [0.0])))
            if L == 1 or np.all(-gaps > _MIN_GAP):
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("failed to draw a non-degenerate schedule")
        nodes = [1.0, *interior.tolist(), 0.0]
    elif kind == "harmonic":
        if tau0 is None or tau0 <= 0:
            raise ValueError("harmonic schedule requires tau0 > 0")
        nodes = [1.0] + [1.0 / (1.0 + tau0 * ell) for ell in range(1, L)] + [0.0]
    else:
        raise ValueError(f"unknown schedule kind: {kind!r}")
    return NodeSchedule(nodes=tuple(nodes))


def segment_of(t: float, sched: NodeSchedule) -> int:
    """Index l in {1..L} of the segment [t_l, t_{l-1}] containing t.

    At an interior node t = t_l the lower segment l is returned; the blend
    value is identical from both sides, so the tie rule is observationally
    neutral.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} outside [0, 1]")
    asc = sched._asc
    L = sched.L
    j = int(np.searchsorted(asc, t, side="left"))
    if j < len(asc) and asc[j] == t:
        ell = L - j
    else:
        ell = L - j + 1
    return min(max(ell, 1), L)


def _segment_bounds(ell: int, sched: NodeSchedule) -> tuple[float, float]:
    if not 1 <= ell <= sched.L:
        raise ValueError(f"segment index {ell} outside 1..{sched.L}")
    return sched.nodes[ell], sched.nodes[ell - 1]


def theta(ell: int, t: float, sched: NodeSchedule) -> float:
    """Blending ramp on segment l: 0 at t_{l-1}, 1 at t_l."""
    tl, tl1 = _segment_bounds(ell, sched)
    if not tl <= t <= tl1:
        raise ValueError(f"t={t} outside segment [{tl}, {tl1}]")
    if t == tl1:
        return 0.0
    if t == tl:
        return 1.0
    s = (t - tl1) / (tl - tl1)
    return math.sin(s * math.pi / 2.0) ** 2


def theta_prime(ell: int, t: float, sched: NodeSchedule) -> float:
    """Analytic d(theta_l)/dt; exactly zero at both segment endpoints."""
    tl, tl1 = _segment_bounds(ell, sched)
    if not tl <= t <= tl1:
        raise ValueError(f"t={t} outside segment [{tl}, {tl1}]")
    if t == tl1 or t == tl:
        return 0.0
    s = (t - tl1) / (tl - tl1)
    return math.pi / (2.0 * (tl - tl1)) * math.sin(s * math.pi)
