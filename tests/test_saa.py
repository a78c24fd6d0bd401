import numpy as np
import pytest

from grsaa.sampling import Partition, SampleSet, draw_samples, partition_uniform
from grsaa.saa import (COERCIVITY_MAX_POINTS, BlendedMap, StochasticSystem,
                       check_coercivity)
from grsaa.schedule import make_schedule
from grsaa import problems as P


def identity_in_xi_system():
    """Scalar system f(x, xi) = xi: averages are sample means."""
    return StochasticSystem(
        n=1, m=1,
        residual=lambda x, xis: xis.copy(),
        jacobian=lambda x, xis: np.zeros((xis.shape[0], 1, 1)),
        box_lo=np.array([-2.0]), box_hi=np.array([2.0]), x0=np.array([0.0]))


def tiny_map():
    samples = SampleSet(np.array([[0.2], [-0.4], [0.8]]), seed=None)
    return BlendedMap(system=identity_in_xi_system(), samples=samples,
                      partition=Partition((2, 3)),
                      schedule=make_schedule("uniform", 2))


def sin_map(n=3, N=300, L=4, seed=0):
    inst = P.sin_instance(n)
    samples = draw_samples(inst.distribution, N, seed=seed)
    return BlendedMap(system=inst.system, samples=samples,
                      partition=partition_uniform(N, L),
                      schedule=make_schedule("uniform", L))


def test_group_averages_by_hand():
    bm = tiny_map()
    assert np.array_equal(bm.sample_average(0, np.zeros(1)), np.zeros(1))
    assert bm.eval_counter == 0  # the zeroth average never touches samples
    assert bm.sample_average(1, np.zeros(1)) == pytest.approx(-0.1)
    assert bm.sample_average(2, np.zeros(1)) == pytest.approx(0.2)


def test_blend_endpoints():
    bm = sin_map()
    x = np.array([0.3, -0.1, 0.2])
    assert np.array_equal(bm.evaluate(x, 1.0, jac=False)[0], np.zeros(3))
    # at t = 0 the blend is the full-sample SAA map
    full = bm.system.residual(x, bm.samples.samples).mean(axis=0)
    assert np.allclose(bm.evaluate(x, 0.0, jac=False)[0], full, rtol=0, atol=1e-15)


def test_blend_hits_group_average_at_nodes():
    bm = sin_map()
    x = np.array([0.5, 0.1, -0.3])
    for ell in range(1, bm.L):
        t_node = bm.schedule.nodes[ell]
        d = bm.evaluate(x, t_node, jac=False)[0]
        assert np.array_equal(d, bm.sample_average(ell, x))


def test_blend_values_agree_across_adjacent_segments():
    # at an interior node the upper segment's blend equals the lower one's
    bm = sin_map()
    x = np.array([-0.2, 0.4, 0.1])
    from grsaa.schedule import theta
    for ell in range(1, bm.L):
        t_node = bm.schedule.nodes[ell]
        lower = bm.evaluate(x, t_node, jac=False)[0]  # segment ell, theta = 1
        th = theta(ell + 1, t_node, bm.schedule)  # upper segment, theta = 0
        upper = (1.0 - th) * bm.sample_average(ell, x) \
            + th * bm.sample_average(ell + 1, x)
        assert np.array_equal(lower, upper)


def test_eval_counter_counts_active_group():
    bm = sin_map(N=100, L=4)
    x = np.zeros(3)
    for t, expect in ((0.9, bm.partition.q[0]), (0.6, bm.partition.q[1]),
                      (0.0, bm.partition.q[3])):
        before = bm.eval_counter
        bm.evaluate(x, t, jac=False)
        assert bm.eval_counter - before == expect


def test_c1_join_derivative_vanishes_at_nodes():
    # near a zero of the map the one-sided derivatives at +-1e-8 offsets are
    # below 1e-6; the bound scales like eps * ||f^l - f^(l-1)|| / width^2, so
    # it is checked where the group averages are moderate
    bm = sin_map(N=1000)
    x = np.zeros(3)
    eps = 1e-8
    for ell in range(1, bm.L):
        t_node = bm.schedule.nodes[ell]
        for t in (t_node - eps, t_node + eps):
            assert np.linalg.norm(bm.evaluate(x, t, jac=False)[1], np.inf) <= 1e-6


def test_deriv_t_exactly_zero_at_nodes():
    bm = sin_map()
    x = np.array([0.7, -0.5, 0.2])
    for ell in range(1, bm.L):
        assert np.array_equal(bm.evaluate(x, bm.schedule.nodes[ell], jac=False)[1],
                              np.zeros(3))


def test_blend_jac_x_matches_finite_differences():
    bm = sin_map(N=60)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-1, 1, 3)
        t = rng.uniform(0, 1)
        J = bm.evaluate(x, t)[2]
        for j in range(3):
            h = 1e-6
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (bm.evaluate(xp, t, jac=False)[0]
                  - bm.evaluate(xm, t, jac=False)[0]) / (2 * h)
            assert np.allclose(J[:, j], fd, rtol=1e-5, atol=1e-7)


def test_blend_deriv_t_matches_finite_differences():
    bm = sin_map(N=60)
    rng = np.random.default_rng(2)
    nodes = np.asarray(bm.schedule.nodes)
    checked = 0
    while checked < 100:
        x = rng.uniform(-1, 1, 3)
        t = rng.uniform(0.01, 0.99)
        if np.min(np.abs(nodes - t)) < 1e-3:
            continue
        ana = bm.evaluate(x, t, jac=False)[1]
        h = 1e-7
        fd = (bm.evaluate(x, t + h, jac=False)[0]
              - bm.evaluate(x, t - h, jac=False)[0]) / (2 * h)
        assert np.allclose(ana, fd, rtol=1e-5, atol=1e-6)
        checked += 1


def test_statistical_consistency_of_full_average():
    # the full-sample average approaches the analytic expectation at the
    # Monte Carlo rate: errors shrink by about 10x from N=1e2 to N=1e4
    inst = P.sin_instance(3)
    x = np.array([0.3, -0.2, 0.5])
    truth = P.sin_expectation(x)
    med = {}
    for N in (100, 10 ** 4):
        errs = []
        for seed in range(20):
            s = draw_samples(inst.distribution, N, seed=seed)
            fN = inst.system.residual(x, s.samples).mean(axis=0)
            errs.append(np.linalg.norm(fN - truth))
        med[N] = np.median(errs)
    ratio = med[100] / med[10 ** 4]
    assert 5.0 <= ratio <= 20.0


def test_mismatched_partition_and_schedule_rejected():
    samples = draw_samples(P.sin_instance(1).distribution, 10, seed=0)
    with pytest.raises(ValueError):
        BlendedMap(system=P.sin_instance(1).system, samples=samples,
                   partition=partition_uniform(10, 2),
                   schedule=make_schedule("uniform", 3))


def test_nonfinite_residual_reports_sample_index():
    def bad(x, xis):
        out = np.ones((xis.shape[0], 1))
        out[3] = np.nan
        return out

    sys_ = StochasticSystem(n=1, m=1, residual=bad, jacobian=None,
                            box_lo=np.array([-1.0]), box_hi=np.array([1.0]),
                            x0=np.array([0.0]))
    samples = SampleSet(np.zeros((6, 1)), seed=None)
    bm = BlendedMap(system=sys_, samples=samples,
                    partition=Partition((6,)),
                    schedule=make_schedule("uniform", 1))
    with pytest.raises(FloatingPointError, match="sample index 3"):
        bm.evaluate(np.zeros(1), 0.5, jac=False)


def test_fd_jacobian_fallback_is_flagged():
    sys_ = StochasticSystem(n=1, m=1, residual=lambda x, xis: x[None, :] + 0 * xis,
                            jacobian=None,
                            box_lo=np.array([-1.0]), box_hi=np.array([1.0]),
                            x0=np.array([0.0]))
    assert sys_.fd_jacobian
    J = sys_.jacobian(np.array([0.3]), np.zeros((5, 1)))
    assert np.allclose(J, 1.0, atol=1e-6)


def coercive_map(sign):
    sys_ = StochasticSystem(
        n=2, m=1,
        residual=lambda x, xis: sign * np.repeat(x[None, :], xis.shape[0], axis=0),
        jacobian=lambda x, xis: sign * np.repeat(np.eye(2)[None], xis.shape[0], axis=0),
        box_lo=np.array([-1.0, -1.0]), box_hi=np.array([1.0, 1.0]),
        x0=np.zeros(2))
    samples = SampleSet(np.zeros((4, 1)), seed=None)
    return BlendedMap(system=sys_, samples=samples, partition=Partition((4,)),
                      schedule=make_schedule("uniform", 1))


def test_coercivity_diagnostic_sign():
    ok = check_coercivity(coercive_map(+1.0), grid_density=5)
    assert ok["min_inner_product"] >= 1.0 and not ok["warning"]
    bad = check_coercivity(coercive_map(-1.0), grid_density=5)
    assert bad["min_inner_product"] <= -1.0 and bad["warning"]


def test_coercivity_sin_system_boundary():
    bm = sin_map(N=50, L=2)
    report = check_coercivity(bm, grid_density=5)
    assert report["min_inner_product"] > 0.0
    assert not report["warning"]


def test_coercivity_grid_density_kept_in_low_dimension():
    report = check_coercivity(sin_map(N=50, L=2))
    assert report["grid_density"] == 8
    assert report["boundary_points"] == 8 ** 3 - 6 ** 3


def test_coercivity_grid_lowered_to_budget():
    # the default density 8 would give 16 * 8^7 = 33.5M face points at n = 8
    report = check_coercivity(sin_map(n=8, N=50, L=2))
    assert report["grid_density"] == 3  # 16 * 3^7 fits, 16 * 4^7 does not
    assert report["boundary_points"] == 3 ** 8 - 1
    assert report["boundary_points"] <= COERCIVITY_MAX_POINTS
