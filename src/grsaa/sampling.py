"""Seeded i.i.d. sample generation.

The sample stream is produced by numpy's PCG64 generator: one generator per
draw, a single uniform block of shape (N, m) consumed in row order.  This
makes every sample set bit-reproducible from (seed, N, distribution) across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UniformBox", "SampleSet", "draw_samples"]


@dataclass(frozen=True)
class UniformBox:
    """Uniform distribution over the box [lo, hi]^m (componentwise bounds)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("invalid box: lo and hi must be 1-d and of equal length")
        if not np.all(lo < hi):
            raise ValueError("invalid box: need lo < hi componentwise")

    @property
    def m(self) -> int:
        return len(self.lo)

    @staticmethod
    def scalar(lo: float, hi: float) -> "UniformBox":
        return UniformBox((float(lo),), (float(hi),))


@dataclass(frozen=True)
class SampleSet:
    """An ordered batch of i.i.d. draws."""

    samples: np.ndarray  # shape (N, m)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 1:
            raise ValueError("samples must be a non-empty (N, m) array")
        object.__setattr__(self, "samples", s)

    @property
    def N(self) -> int:
        return self.samples.shape[0]

    @property
    def m(self) -> int:
        return self.samples.shape[1]


def draw_samples(distribution: UniformBox, N: int, seed: int) -> SampleSet:
    """Draw N i.i.d. samples from the box-uniform distribution.

    Deterministic under a fixed seed; rerunning with equal arguments yields a
    bit-identical sample set.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    lo = np.asarray(distribution.lo, dtype=float)
    hi = np.asarray(distribution.hi, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random((N, distribution.m))
    return SampleSet(samples=lo + (hi - lo) * u)

