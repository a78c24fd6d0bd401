import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grsaa.schedule import make_schedule, segment_of, theta, theta_prime


def test_uniform_nodes():
    s = make_schedule("uniform", 4)
    assert s.nodes == (1.0, 0.75, 0.5, 0.25, 0.0)
    assert make_schedule("uniform", 1).nodes == (1.0, 0.0)


def test_harmonic_interior_nodes():
    s = make_schedule("harmonic", 4, tau0=7000.0)
    assert s.nodes[2] == 1.0 / 14001.0
    assert s.nodes[0] == 1.0 and s.nodes[-1] == 0.0


def test_random_descending_reproducible_and_strict():
    a = make_schedule("random-descending", 10, seed=5)
    b = make_schedule("random-descending", 10, seed=5)
    assert a.nodes == b.nodes
    assert all(y < x for x, y in zip(a.nodes, a.nodes[1:]))
    with pytest.raises(ValueError):
        make_schedule("random-descending", 4)


def test_rejects_bad_kinds_and_L():
    with pytest.raises(ValueError):
        make_schedule("uniform", 0)
    with pytest.raises(ValueError):
        make_schedule("harmonic", 3)
    with pytest.raises(ValueError):
        make_schedule("cubic", 3)


def test_segment_lookup():
    s = make_schedule("uniform", 4)
    assert segment_of(1.0, s) == 1
    assert segment_of(0.6, s) == 2
    # tie at an interior node goes to the lower segment
    assert segment_of(0.5, s) == 2
    assert segment_of(0.0, s) == 4
    with pytest.raises(ValueError):
        segment_of(1.5, s)


def test_theta_endpoints_are_branch_exact():
    s = make_schedule("random-descending", 6, seed=3)
    for ell in range(1, s.L + 1):
        tl, tl1 = s.nodes[ell], s.nodes[ell - 1]
        assert theta(ell, tl1, s) == 0.0
        assert theta(ell, tl, s) == 1.0
        assert theta_prime(ell, tl1, s) == 0.0
        assert theta_prime(ell, tl, s) == 0.0


def test_theta_midpoint_and_monotone_descent():
    s = make_schedule("uniform", 4)
    tl, tl1 = s.nodes[2], s.nodes[1]
    assert theta(2, (tl + tl1) / 2.0, s) == pytest.approx(0.5, abs=1e-15)
    ts = np.linspace(tl1, tl, 50)
    vals = [theta(2, t, s) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_theta_prime_hand_value():
    # segment [0.5, 1.0], t = 0.75: pi / (2 * (-0.5)) * sin(pi/2) = -pi
    s = make_schedule("uniform", 2)
    assert theta_prime(1, 0.75, s) == pytest.approx(-math.pi, rel=1e-15)


def test_theta_prime_matches_finite_differences():
    s = make_schedule("random-descending", 3, seed=9)
    h = 1e-6
    for ell in range(1, s.L + 1):
        tl, tl1 = s.nodes[ell], s.nodes[ell - 1]
        for t in np.linspace(tl + 2 * h, tl1 - 2 * h, 1000):
            ana = theta_prime(ell, t, s)
            fd = (theta(ell, t + h, s) - theta(ell, t - h, s)) / (2 * h)
            assert abs(ana - fd) <= 1e-6 * (1.0 + abs(ana))


def test_outside_segment_rejected():
    s = make_schedule("uniform", 4)
    with pytest.raises(ValueError):
        theta(2, 0.9, s)
    with pytest.raises(ValueError):
        theta_prime(1, 0.1, s)


@given(t=st.floats(0.0, 1.0), L=st.integers(1, 12))
def test_segment_contains_t(t, L):
    s = make_schedule("uniform", L)
    ell = segment_of(t, s)
    assert s.nodes[ell] <= t <= s.nodes[ell - 1]
