"""Seeded i.i.d. sample generation.

Every problem has one random parameter, a scalar xi ~ uniform[-1, 1], stored
one per row of an (N, 1) array.  The kernels in `problems` read that column,
and the expectation oracles (sin's 5 sin(1) factor, svi's Gauss-Legendre
rule over [-1, 1] with weight 1/2) hold for this law alone.

The sample stream is produced by numpy's PCG64 generator: one generator per
draw, a single uniform block of shape (N, 1) consumed in row order.  This
makes every sample set bit-reproducible from (seed, N) across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SampleSet", "draw_samples"]


@dataclass(frozen=True)
class SampleSet:
    """An ordered batch of i.i.d. draws of xi, one per row."""

    samples: np.ndarray  # shape (N, 1)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] != 1:
            raise ValueError("samples must be a non-empty (N, 1) array")
        object.__setattr__(self, "samples", s)

    @property
    def N(self) -> int:
        return self.samples.shape[0]


def draw_samples(N: int, seed: int) -> SampleSet:
    """Draw N i.i.d. samples of xi ~ uniform[-1, 1].

    Deterministic under a fixed seed; rerunning with equal arguments yields a
    bit-identical sample set.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    return SampleSet(samples=-1.0 + 2.0 * rng.random((N, 1)))
