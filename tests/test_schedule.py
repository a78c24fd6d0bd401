import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grsaa.schedule import NodeSchedule, make_schedule


def random_nodes(L, seed):
    """A schedule with L - 1 interior nodes drawn uniformly from (0, 1)."""
    interior = np.sort(np.random.default_rng(seed).random(L - 1))[::-1]
    return NodeSchedule(nodes=(1.0, *interior, 0.0), q=tuple(range(L + 1)))


def test_uniform_nodes():
    s = make_schedule("uniform", 8, 4)
    assert s.nodes == (1.0, 0.75, 0.5, 0.25, 0.0)
    assert make_schedule("uniform", 8, 1).nodes == (1.0, 0.0)


def test_harmonic_interior_nodes():
    s = make_schedule("harmonic", 8, 4)
    assert s.nodes[2] == 1.0 / 14001.0
    assert s.nodes[0] == 1.0 and s.nodes[-1] == 0.0


def test_rejects_bad_kinds_and_L():
    with pytest.raises(ValueError):
        make_schedule("uniform", 8, 0)
    with pytest.raises(ValueError, match="random-descending"):
        make_schedule("random-descending", 8, 3)
    with pytest.raises(ValueError):
        make_schedule("cubic", 8, 3)
    for nodes in ((1.0, 0.5, 0.5, 0.0), (1.0, math.nan, 0.0)):
        with pytest.raises(ValueError, match="strictly decreasing"):
            NodeSchedule(nodes=nodes, q=tuple(range(len(nodes))))


@pytest.mark.parametrize("nodes, match", [
    ((), "two nodes"),
    ((1.0,), "two nodes"),
    ((0.9, 0.0), "start at 1"),
    ((1.0, 0.1), "end at 0"),
    ((0.0, 1.0), "start at 1"),
])
def test_nodes_need_two_points_from_one_to_zero(nodes, match):
    with pytest.raises(ValueError, match=match):
        NodeSchedule(nodes=nodes, q=tuple(range(len(nodes))))


def test_segment_lookup():
    s = make_schedule("uniform", 8, 4)
    assert s.blend(1.0)[0] == 1
    assert s.blend(0.6)[0] == 2
    # tie at an interior node goes to the lower segment
    assert s.blend(0.5)[0] == 2
    assert s.blend(0.0)[0] == 4
    for t in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            s.blend(t)


def test_theta_endpoints_are_branch_exact():
    s = random_nodes(6, seed=3)
    assert s.blend(1.0) == (1, 0.0, 0.0)
    for ell in range(1, s.L + 1):
        assert s.blend(s.nodes[ell]) == (ell, 1.0, 0.0)


def test_theta_midpoint_and_monotone_descent():
    s = make_schedule("uniform", 8, 4)
    tl, tl1 = s.nodes[2], s.nodes[1]
    assert s.blend((tl + tl1) / 2.0)[1] == pytest.approx(0.5, abs=1e-15)
    # t_1 itself belongs to segment 1
    ts = np.linspace(tl1, tl, 50)[1:]
    assert {s.blend(t)[0] for t in ts} == {2}
    vals = [s.blend(t)[1] for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_theta_prime_hand_value():
    # segment [0.5, 1.0], t = 0.75: pi / (2 * (-0.5)) * sin(pi/2) = -pi
    s = make_schedule("uniform", 8, 2)
    assert s.blend(0.75)[2] == pytest.approx(-math.pi, rel=1e-15)


def test_theta_prime_matches_finite_differences():
    s = random_nodes(3, seed=9)
    h = 1e-6
    for ell in range(1, s.L + 1):
        tl, tl1 = s.nodes[ell], s.nodes[ell - 1]
        for t in np.linspace(tl + 2 * h, tl1 - 2 * h, 1000):
            seg, _, ana = s.blend(t)
            assert seg == ell
            fd = (s.blend(t + h)[1] - s.blend(t - h)[1]) / (2 * h)
            assert abs(ana - fd) <= 1e-6 * (1.0 + abs(ana))


@given(t=st.floats(0.0, 1.0), L=st.integers(1, 12),
       kind=st.sampled_from(["uniform", "harmonic"]))
def test_segment_contains_t(t, L, kind):
    s = make_schedule(kind, 12, L)
    ell, th, _ = s.blend(t)
    assert s.nodes[ell] <= t <= s.nodes[ell - 1]
    assert 0.0 <= th <= 1.0


def test_sample_sizes_even_split():
    assert make_schedule("uniform", 10, 5).q == (0, 2, 4, 6, 8, 10)
    assert make_schedule("uniform", 5, 5).q == (0, 1, 2, 3, 4, 5)


def test_sample_sizes_rounding():
    assert make_schedule("uniform", 7, 3).q == (0, 2, 5, 7)


def test_sample_sizes_refuse_L_above_N():
    with pytest.raises(ValueError, match="need 1 <= L <= N"):
        make_schedule("uniform", 5, 6)
    with pytest.raises(ValueError, match="need 1 <= L <= N"):
        make_schedule("harmonic", 5, 0)


def test_sample_sizes_of_tau1_L_are_linear():
    # the paper's linear groups q_l = tau1 * l are the sizes of N = tau1 * L
    for tau1, L in ((500, 3), (1, 4), (2, 1)):
        assert make_schedule("uniform", tau1 * L, L).q == tuple(
            tau1 * ell for ell in range(L + 1))


def test_sample_size_invariants_enforced():
    nodes = (1.0, 0.5, 0.25, 0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        NodeSchedule(nodes=nodes, q=(0, 3, 3, 5))
    with pytest.raises(ValueError, match="strictly increasing"):
        NodeSchedule(nodes=nodes, q=(0, 0, 2, 4))


@pytest.mark.parametrize("q, match", [
    ((0, 2, 4), "one sample size per node"),
    ((0, 2, 4, 6, 8), "one sample size per node"),
    ((1, 2, 4, 6), "at t = 1 must be 0"),
    ((0, 4, 2, 6), "strictly increasing"),
], ids=["too-few", "too-many", "q0-nonzero", "decreasing"])
def test_sample_sizes_are_refused(q, match):
    with pytest.raises(ValueError, match=match):
        NodeSchedule(nodes=(1.0, 0.5, 0.25, 0.0), q=q)


@given(N=st.integers(1, 500), L=st.integers(1, 500),
       kind=st.sampled_from(["uniform", "harmonic"]))
def test_sample_sizes_always_valid(N, L, kind):
    if L > N:
        with pytest.raises(ValueError):
            make_schedule(kind, N, L)
        return
    s = make_schedule(kind, N, L)
    assert s.L == L and s.N == N and s.q[0] == 0
    assert all(b > a for a, b in zip(s.q, s.q[1:]))
