import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from grsaa.sampling import SampleSet, draw_samples
from grsaa.saa import BlendedMap, StochasticSystem, check_coercivity
from grsaa.schedule import NodeSchedule, make_schedule
from grsaa import problems as P


def identity_in_xi_system():
    """Scalar system f(x, xi) = xi: averages are sample means."""
    return StochasticSystem(
        n=1,
        residual=lambda x, xis: xis.copy(),
        jacobian=lambda x, xis, w: (xis.copy(), np.zeros((1, 1))),
        box_lo=np.array([-2.0]), box_hi=np.array([2.0]), x0=np.array([0.0]))


def tiny_map():
    samples = SampleSet(np.array([[0.2], [-0.4], [0.8]]))
    return BlendedMap(system=identity_in_xi_system(), samples=samples,
                      schedule=make_schedule("uniform", 3, 2))


def sin_map(n=3, N=300, L=4, seed=0):
    inst = P.sin_instance(n)
    samples = draw_samples(N, seed=seed)
    return BlendedMap(system=inst.system, samples=samples,
                      schedule=make_schedule("uniform", N, L))


def test_group_averages_by_hand():
    bm = tiny_map()
    assert np.array_equal(bm.sample_average(0, np.zeros(1)), np.zeros(1))
    assert bm.eval_counter == 0  # the zeroth average never touches samples
    assert bm.sample_average(1, np.zeros(1)) == pytest.approx(-0.1)
    assert bm.sample_average(2, np.zeros(1)) == pytest.approx(0.2)


def test_blend_endpoints():
    bm = sin_map()
    x = np.array([0.3, -0.1, 0.2])
    assert np.array_equal(bm.evaluate(x, 1.0)[0], np.zeros(3))
    # at t = 0 the blend is the full-sample SAA map
    full = bm.system.residual(x, bm.samples.samples).mean(axis=0)
    assert np.allclose(bm.evaluate(x, 0.0)[0], full, rtol=0, atol=1e-15)


def test_blend_hits_group_average_at_nodes():
    bm = sin_map()
    x = np.array([0.5, 0.1, -0.3])
    for ell in range(1, bm.L):
        t_node = bm.schedule.nodes[ell]
        d = bm.evaluate(x, t_node)[0]
        assert np.array_equal(d, bm.sample_average(ell, x))


def test_blend_values_agree_across_adjacent_segments():
    # at an interior node t_l segment l ends with theta = 1; one ulp below it
    # segment l + 1 starts with theta ~ 0, so both give f^l
    bm = sin_map()
    x = np.array([-0.2, 0.4, 0.1])
    for ell in range(1, bm.L):
        t_node = bm.schedule.nodes[ell]
        below = math.nextafter(t_node, 0.0)
        assert bm.schedule.blend(below)[0] == ell + 1
        assert np.allclose(bm.evaluate(x, below)[0], bm.evaluate(x, t_node)[0],
                           rtol=0, atol=1e-15)


def test_eval_counter_counts_active_group():
    bm = sin_map(N=100, L=4)
    x = np.zeros(3)
    # at t = 1, theta = 0 weighs none of the q_1 samples, so none is evaluated
    q = bm.schedule.q
    for t, expect in ((1.0, 0), (0.9, q[1]), (0.6, q[2]), (0.0, q[4])):
        evals, jacs = bm.eval_counter, bm.jac_counter
        bm.evaluate(x, t)
        assert bm.eval_counter - evals == bm.jac_counter - jacs == expect
    d, dd_dt, dd_dx = bm.evaluate(x, 1.0)
    assert not np.any(d) and not np.any(dd_dt) and not np.any(dd_dx)


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
            assert np.linalg.norm(bm.evaluate(x, t)[1], np.inf) <= 1e-6


def test_deriv_t_exactly_zero_at_nodes():
    bm = sin_map()
    x = np.array([0.7, -0.5, 0.2])
    for ell in range(1, bm.L):
        assert np.array_equal(bm.evaluate(x, bm.schedule.nodes[ell])[1],
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
            fd = (bm.evaluate(xp, t)[0]
                  - bm.evaluate(xm, t)[0]) / (2 * h)
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
        ana = bm.evaluate(x, t)[1]
        h = 1e-7
        fd = (bm.evaluate(x, t + h)[0]
              - bm.evaluate(x, t - h)[0]) / (2 * h)
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
            s = draw_samples(N, seed=seed)
            fN = inst.system.residual(x, s.samples).mean(axis=0)
            errs.append(np.linalg.norm(fN - truth))
        med[N] = np.median(errs)
    ratio = med[100] / med[10 ** 4]
    assert 5.0 <= ratio <= 20.0


def test_mismatched_partition_and_schedule_rejected():
    # sizes for two segments on three-segment nodes: the schedule that pairs
    # them refuses the mismatch before any map is built
    with pytest.raises(ValueError, match="one sample size per node"):
        NodeSchedule(nodes=make_schedule("uniform", 10, 3).nodes,
                     q=make_schedule("uniform", 10, 2).q)


def _system(**changes):
    base = dict(n=1, residual=None, jacobian=None,
                box_lo=np.array([-1.0]), box_hi=np.array([1.0]),
                x0=np.array([0.0]))
    return StochasticSystem(**{**base, **changes})


def _map(system=None, samples=None):
    return BlendedMap(system=system or _system(),
                      samples=samples or SampleSet(np.zeros((4, 1))),
                      schedule=make_schedule("uniform", 4, 2))


@pytest.mark.parametrize("build, match", [
    (lambda: _system(box_lo=np.array([-1.0, -1.0])), "shape"),
    (lambda: _system(x0=np.array([0.0, 0.0])), "shape"),
    (lambda: _system(x0=np.array([1.0])), "strictly inside"),
    (lambda: _map(samples=SampleSet(np.zeros((5, 1)))), "sample count"),
    (lambda: _map(samples=SampleSet(np.zeros((4, 2)))), r"\(N, 1\)"),
    (lambda: _map().sample_average(3, np.zeros(1)), "outside 0..2"),
    (lambda: _map().sample_average(-1, np.zeros(1)), "outside 0..2"),
], ids=["box-shape", "x0-shape", "x0-on-boundary", "N-mismatch",
        "m-mismatch", "group-above-L", "group-negative"])
def test_inconsistent_inputs_are_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_nonfinite_residual_reports_sample_index():
    def bad(x, xis):
        out = np.ones((xis.shape[0], 1))
        out[3] = np.nan
        return out

    sys_ = StochasticSystem(n=1, residual=bad, jacobian=None,
                            box_lo=np.array([-1.0]), box_hi=np.array([1.0]),
                            x0=np.array([0.0]))
    samples = SampleSet(np.zeros((6, 1)))
    bm = BlendedMap(system=sys_, samples=samples,
                    schedule=make_schedule("uniform", 6, 1))
    with pytest.raises(FloatingPointError, match="sample index 3"):
        bm.sample_average(1, np.zeros(1))
    # the fused (F, J) pass checks F the same way and counts nothing
    bm.system = dataclasses.replace(
        sys_, jacobian=lambda x, xis, w: (bad(x, xis), np.zeros((1, 1))))
    with pytest.raises(FloatingPointError, match="sample index 3"):
        bm.evaluate(np.zeros(1), 0.5)
    assert (bm.eval_counter, bm.jac_counter) == (0, 0)


def rows_map(rows):
    """BlendedMap over a scalar system whose kernels return `rows` (q, 1)."""
    sys_ = StochasticSystem(
        n=1, residual=lambda x, xis: rows[:xis.shape[0]].copy(),
        jacobian=lambda x, xis, w: (rows[:xis.shape[0]].copy(), np.zeros((1, 1))),
        box_lo=np.array([-1.0]), box_hi=np.array([1.0]), x0=np.array([0.0]))
    q = rows.shape[0]
    return BlendedMap(system=sys_, samples=SampleSet(np.zeros((q, 1))),
                      schedule=make_schedule("uniform", q, 1))


@pytest.mark.parametrize("k", [0, 4, 7])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_row_is_named_from_the_sum(k, value):
    # the finite check reads the column sums; a bad row makes them non-finite
    rows = np.ones((8, 1))
    rows[k] = value
    if k == 0:
        rows[5] = np.nan  # the first bad row is named, not a later one
    bm = rows_map(rows)
    for call in (lambda: bm.sample_average(1, np.zeros(1)),
                 lambda: bm.evaluate(np.zeros(1), 0.0)):
        with pytest.raises(FloatingPointError, match=f"sample index {k} "):
            call()
    assert (bm.eval_counter, bm.jac_counter) == (0, 0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overflowing_sum_of_finite_rows_raises(sign):
    rows = np.full((6, 1), sign * 1e308)
    bm = rows_map(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the sum
        for call in (lambda: bm.sample_average(1, np.zeros(1)),
                     lambda: bm.evaluate(np.zeros(1), 0.0)):
            with pytest.raises(FloatingPointError, match="finite rows overflowed"):
                call()
    assert (bm.eval_counter, bm.jac_counter) == (0, 0)


def problem_maps():
    """One BlendedMap per problem kind, L = 4, with a clipped market sample."""
    for name, n in (("market", 3), ("sin", 3), ("svi", 2)):
        inst = P.get_instance(name, n)
        samples = draw_samples(400, seed=1)
        samples.samples[150] = 1.0 - 1e-9
        yield BlendedMap(system=inst.system, samples=samples,
                         schedule=make_schedule("uniform", 400, 4))


def points(bm, rng):
    nodes = np.asarray(bm.schedule.nodes)
    lo, hi = bm.system.box_lo, bm.system.box_hi
    for t in (*nodes, 0.1, 0.37, 0.6, 0.9):
        yield rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)), float(t)


def test_evaluate_paths_agree_bit_for_bit():
    # the tracer reads the fused pass, saa_residual and the market check the
    # residual kernel through sample_average: the blend must not tell them apart
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for bm in problem_maps():
            for x, t in points(bm, rng):
                d, dd_dt, J = bm.evaluate(x, t)
                ell, th, thp = bm.schedule.blend(t)
                f_lo = bm.sample_average(ell - 1, x)
                f_hi = bm.sample_average(ell, x)
                assert J.shape == (bm.system.n,) * 2
                assert np.array_equal(d, (1.0 - th) * f_lo + th * f_hi)
                if thp != 0.0:
                    assert np.array_equal(dd_dt, thp * (f_hi - f_lo))


def test_evaluate_makes_one_kernel_call():
    calls = {}

    def counted(name, fn):
        def call(x, xis, *w):
            calls[name] += 1
            return fn(x, xis, *w)
        return call

    rng = np.random.default_rng(12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for bm in problem_maps():
            bm.system = dataclasses.replace(
                bm.system, residual=counted("residual", bm.system.residual),
                jacobian=counted("jacobian", bm.system.jacobian))
            for x, t in points(bm, rng):
                calls.update(residual=0, jacobian=0)
                bm.evaluate(x, t)
                assert calls == {"residual": 0, "jacobian": 1}
                bm.sample_average(bm.L, x)
                assert calls == {"residual": 1, "jacobian": 1}


def test_evaluate_jacobian_blends_per_sample_jacobians():
    # dd/dx = (1 - theta) J^{l-1} + theta J^l, J^l the mean of the first q_l
    # per-sample Jacobians, here by central differences
    rng = np.random.default_rng(13)
    h = 1e-7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for bm in problem_maps():
            n = bm.system.n
            for x, t in points(bm, rng):
                ell, th, _ = bm.schedule.blend(t)
                q_lo, q_hi = bm.schedule.q[ell - 1], bm.schedule.q[ell]
                xis = bm.samples.samples[:q_hi]
                fd = np.empty((q_hi, n, n))
                for j, step in enumerate(h * np.eye(n)):
                    fd[:, :, j] = (bm.system.residual(x + step, xis)
                                   - bm.system.residual(x - step, xis)) / (2 * h)
                head = fd[:q_lo].mean(axis=0) if q_lo else np.zeros((n, n))
                want = (1.0 - th) * head + th * fd.mean(axis=0)
                assert np.allclose(bm.evaluate(x, t)[2], want, rtol=1e-5, atol=1e-6)


def coercive_map(sign):
    sys_ = StochasticSystem(
        n=2,
        residual=lambda x, xis: sign * np.repeat(x[None, :], xis.shape[0], axis=0),
        jacobian=lambda x, xis, w: (
            sign * np.repeat(x[None, :], xis.shape[0], axis=0),
            sign * w.sum() * np.eye(2)),
        box_lo=np.array([-1.0, -1.0]), box_hi=np.array([1.0, 1.0]),
        x0=np.zeros(2))
    samples = SampleSet(np.zeros((4, 1)))
    return BlendedMap(system=sys_, samples=samples,
                      schedule=make_schedule("uniform", 4, 1))


def test_coercivity_diagnostic_sign():
    ok = check_coercivity(coercive_map(+1.0))
    assert ok["min_inner_product"] >= 1.0 and not ok["warning"]
    bad = check_coercivity(coercive_map(-1.0))
    assert bad["min_inner_product"] <= -1.0 and bad["warning"]


def test_coercivity_sin_system_boundary():
    bm = sin_map(N=50, L=2)
    report = check_coercivity(bm)
    assert report["min_inner_product"] > 0.0
    assert not report["warning"]
    # the argmin is a boundary point and one of the tested samples
    x = np.array(report["argmin_x"])
    assert np.any((x == bm.system.box_lo) | (x == bm.system.box_hi))
    assert 0 <= report["argmin_sample_index"] < 50


def test_coercivity_same_point_count_on_every_face():
    # 256 points on each of the 2n faces, for n = 14 as for n = 1 (where a
    # face is a single point)
    for n in (1, 3, 14):
        bm = sin_map(n=n, N=50, L=2)
        seen = []
        residual = bm.system.residual

        def recording(x, xis):
            seen.append(x.copy())
            return residual(x, xis)

        bm = dataclasses.replace(
            bm, system=dataclasses.replace(bm.system, residual=recording))
        report = check_coercivity(bm)
        pts = np.array(seen)
        lo, hi = bm.system.box_lo, bm.system.box_hi
        assert report["boundary_points"] == len(pts) == 2 * n * 256
        assert np.all((lo <= pts) & (pts <= hi))
        counts = [np.sum(pts[:, j] == bound) for j in range(n)
                  for bound in (lo[j], hi[j])]
        assert counts == [256] * (2 * n), n


@pytest.mark.parametrize("N, tested", [(50, 50), (200, 200), (401, 134),
                                       (1000, 200), (10 ** 4, 200)])
def test_coercivity_tests_at_most_200_samples(N, tested):
    report = check_coercivity(sin_map(n=1, N=N, L=2))
    assert report["samples_tested"] == tested


# diagnose-coercivity's reports for sin at its default N = 10^4, L = 100 and
# seed 1: the faces, drawn one at a time, are the points of one (2n, 256, n)
# draw from the same stream
COERCIVITY_REPORTS = {
    3: {"min_inner_product": 40.425051747957156, "warning": False,
        "boundary_points": 1536, "samples_tested": 200,
        "argmin_x": [-3.3535195681435077, 10.0, -3.177326227498824],
        "argmin_sample_index": 700},
    14: {"min_inner_product": 82.46460126821235, "warning": False,
         "boundary_points": 7168, "samples_tested": 200,
         "argmin_x": [1.617557021950752, -0.27313712909312216, 10.0,
                      -5.542151757919635, 1.2503865592510444,
                      -1.5233599259280979, 8.317540149422065,
                      -3.99261356979048, 4.872664999622264,
                      2.0072582900688722, 1.237577556212761,
                      -3.4732946045347246, -1.2052256562200157,
                      -3.899812756903966],
         "argmin_sample_index": 3200},
}


@pytest.mark.parametrize("n", sorted(COERCIVITY_REPORTS))
def test_coercivity_report_is_unchanged(n):
    bm = sin_map(n=n, N=10 ** 4, L=100, seed=1)
    assert check_coercivity(bm) == COERCIVITY_REPORTS[n]


def test_coercivity_memory_does_not_grow_with_n_squared():
    # all 2n faces at once took (2n, 256, n) doubles: 6.5 MiB at n = 40
    bm = sin_map(n=40, N=200, L=4)
    tracemalloc.start()
    try:
        check_coercivity(bm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
