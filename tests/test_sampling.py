import numpy as np
import pytest

from grsaa.sampling import SampleSet, draw_samples


def test_draws_are_deterministic_and_in_box():
    a = draw_samples(4, seed=7)
    b = draw_samples(4, seed=7)
    assert a.N == 4 and a.samples.shape == (4, 1)
    assert np.array_equal(a.samples, b.samples)
    assert np.all((a.samples >= -1.0) & (a.samples <= 1.0))


def test_sample_stream_is_pinned():
    # -1 + 2u for the first uniforms of PCG64(0): a change to the generator,
    # its seeding or the affine map moves every traced path
    want = ["0x1.187f5e7ece140p-2", "-0x1.d77a103be9318p-2",
            "-0x1.d60b095ac4c86p-1", "-0x1.ef136127b2f44p-1",
            "0x1.40c9e9e0b3794p-1"]
    s = draw_samples(5, seed=0)
    assert [float(v).hex() for v in s.samples[:, 0]] == want


def test_different_seeds_differ():
    a = draw_samples(16, seed=1)
    b = draw_samples(16, seed=2)
    assert not np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("build", [
    lambda: SampleSet(np.zeros((0, 1))),
    lambda: SampleSet(np.zeros(3)),
    lambda: SampleSet(np.zeros((3, 2))),
], ids=["samples-empty", "samples-1d", "samples-2-columns"])
def test_malformed_box_or_samples_rejected(build):
    with pytest.raises(ValueError, match=r"non-empty \(N, 1\)"):
        build()


def test_zero_samples_rejected():
    with pytest.raises(ValueError):
        draw_samples(0, seed=1)


def test_empirical_mean_within_standard_error():
    # Var(uniform[-1,1]) = 1/3; three standard errors of the mean
    s = draw_samples(10 ** 6, seed=1)
    bound = 3.0 * (1.0 / np.sqrt(3.0)) / np.sqrt(10 ** 6)
    assert abs(s.samples.mean()) < bound
