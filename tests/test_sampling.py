import numpy as np
import pytest
from hypothesis import given, strategies as st

from grsaa.sampling import (Partition, SampleSet, UniformBox, draw_samples,
                            partition_uniform)

U11 = UniformBox.scalar(-1.0, 1.0)


def test_draws_are_deterministic_and_in_box():
    a = draw_samples(U11, 4, seed=7)
    b = draw_samples(U11, 4, seed=7)
    assert a.N == 4 and a.m == 1
    assert np.array_equal(a.samples, b.samples)
    assert np.all((a.samples >= -1.0) & (a.samples <= 1.0))


def test_different_seeds_differ():
    a = draw_samples(U11, 16, seed=1)
    b = draw_samples(U11, 16, seed=2)
    assert not np.array_equal(a.samples, b.samples)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError, match="invalid box"):
        UniformBox.scalar(0.0, 0.0)
    with pytest.raises(ValueError, match="invalid box"):
        UniformBox((0.0, 1.0), (1.0, 0.5))


@pytest.mark.parametrize("build", [
    lambda: UniformBox((), ()),
    lambda: UniformBox(((0.0, 0.0),), ((1.0, 1.0),)),
    lambda: UniformBox((0.0,), (1.0, 2.0)),
    lambda: SampleSet(np.zeros((0, 1))),
    lambda: SampleSet(np.zeros(3)),
], ids=["box-empty", "box-2d", "box-lengths", "samples-empty", "samples-1d"])
def test_malformed_box_or_samples_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_zero_samples_rejected():
    with pytest.raises(ValueError):
        draw_samples(U11, 0, seed=1)


def test_empirical_mean_within_standard_error():
    # Var(uniform[-1,1]) = 1/3; three standard errors of the mean
    s = draw_samples(U11, 10 ** 6, seed=1)
    bound = 3.0 * (1.0 / np.sqrt(3.0)) / np.sqrt(10 ** 6)
    assert abs(s.samples.mean()) < bound


def test_multivariate_box():
    box = UniformBox((0.0, -2.0), (1.0, 2.0))
    s = draw_samples(box, 100, seed=3)
    assert s.samples.shape == (100, 2)
    assert np.all(s.samples[:, 0] <= 1.0) and np.all(s.samples[:, 1] >= -2.0)


def test_partition_uniform_even_split():
    assert partition_uniform(10, 5).q == (2, 4, 6, 8, 10)
    assert partition_uniform(5, 5).q == (1, 2, 3, 4, 5)


def test_partition_uniform_rounding():
    assert partition_uniform(7, 3).q == (2, 5, 7)


def test_partition_uniform_rejects_bad_L():
    with pytest.raises(ValueError):
        partition_uniform(5, 6)
    with pytest.raises(ValueError):
        partition_uniform(5, 0)


def test_partition_uniform_of_tau1_L_is_linear():
    # the paper's linear groups q_l = tau1 * l are the uniform partition of N = tau1 * L
    for tau1, L in ((500, 3), (1, 4), (2, 1)):
        assert partition_uniform(tau1 * L, L).q == tuple(tau1 * ell
                                                        for ell in range(1, L + 1))


def test_partition_invariants_enforced():
    with pytest.raises(ValueError):
        Partition((3, 3, 5))
    with pytest.raises(ValueError):
        Partition((0, 2))


@given(N=st.integers(1, 500), L=st.integers(1, 500))
def test_partition_uniform_always_valid(N, L):
    if L > N:
        with pytest.raises(ValueError):
            partition_uniform(N, L)
        return
    p = partition_uniform(N, L)
    assert p.L == L and p.N == N
    assert all(b > a for a, b in zip((0,) + p.q, p.q))
