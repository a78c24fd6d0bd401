import numpy as np
import pytest

from grsaa.sampling import SampleSet, UniformBox, draw_samples

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

