import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from grsaa.cli import RunConfig, build_run
from grsaa.homotopy import KAPPA0, HomotopyMap, solve_start_y, transform_derivs
from grsaa.sampling import draw_samples
from grsaa.saa import BlendedMap
from grsaa.schedule import make_schedule
from grsaa import problems as P


def plain_map(n=3, N=120, L=4, seed=0, alpha=None):
    inst = P.sin_instance(n)
    samples = draw_samples(N, seed=seed)
    bm = BlendedMap(system=inst.system, samples=samples,
                    schedule=make_schedule("uniform", N, L))
    return HomotopyMap(blended=bm, alpha=alpha)


def kkt_map(problem="svi", n=2, N=120, L=4, seed=0, alpha=None):
    inst = P.get_instance(problem, n)
    samples = draw_samples(N, seed=seed)
    bm = BlendedMap(system=inst.system, samples=samples,
                    schedule=make_schedule("uniform", N, L))
    return HomotopyMap(blended=bm, alpha=alpha, B=inst.B, b=inst.b)


def value(hm, u, t):
    return hm.evaluate(u, t)[0]


# -- plain map ---------------------------------------------------------------

def test_plain_start_is_exact_zero_without_sampling():
    hm = plain_map()
    x0 = hm.start_point()
    assert np.array_equal(value(hm, x0, 1.0), np.zeros(3))


def test_plain_t1_is_translation():
    hm = plain_map()
    x = np.array([0.4, -0.7, 1.2])
    assert np.array_equal(value(hm, x, 1.0), x - hm.x0)


def test_plain_t0_is_full_saa_map():
    hm = plain_map()
    x = np.array([0.3, 0.1, -0.2])
    full = hm.blended.system.residual(x, hm.blended.samples.samples).mean(axis=0)
    assert np.allclose(value(hm, x, 0.0), full, rtol=0, atol=1e-15)


def test_alpha_never_changes_the_endpoints():
    # the plain map and the KKT map (svi, n = 2) take alpha alike
    cases = ((plain_map, np.array([2.0, -1.0, 0.5]), np.array([0.6, -0.2, 0.9])),
             (kkt_map, np.array([2.0, -1.0]),
              np.array([0.6, -0.2, 0.3, -1.1, 0.8, 1.4])))
    for make, alpha, u in cases:
        base = make(alpha=None)
        bent = make(alpha=alpha)
        for t in (0.0, 1.0):
            assert np.array_equal(value(base, u, t), value(bent, u, t))
        # but it does perturb the interior of the path
        assert not np.allclose(value(base, u, 0.5), value(bent, u, 0.5))


def test_plain_hand_value_single_sample():
    # one sample, L=1: h = (1-t) theta(t) f(x, xi) + t (x - x0), x0 = 0
    hm = plain_map(n=1, N=1, L=1, seed=4)
    xi = hm.blended.samples.samples[0, 0]
    x = np.array([0.7])
    t = 0.25
    th = np.sin((1.0 - t) * np.pi / 2.0) ** 2
    f = 0.7 - 5.0 * np.sin(0.7 + xi)
    expect = (1.0 - t) * th * f + t * 0.7
    assert value(hm, x, t)[0] == pytest.approx(expect, rel=1e-14)


def test_evaluate_is_one_pass_per_point():
    for hm in (plain_map(), kkt_map("svi", 2)):
        bm = hm.blended
        u = hm.start_point() + 0.1
        t = 0.6
        q = bm.schedule.q[bm.schedule.blend(t)[0]]
        evals, jacs = bm.eval_counter, bm.jac_counter
        hm.evaluate(u, t)
        assert (bm.eval_counter - evals, bm.jac_counter - jacs) == (q, q)


def test_jac_plain_matches_finite_differences():
    hm = plain_map(alpha=np.array([0.3, -0.8, 0.1]))
    rng = np.random.default_rng(7)
    nodes = np.asarray(hm.blended.schedule.nodes)
    checked = 0
    while checked < 60:
        x = rng.uniform(-1, 1, 3)
        t = rng.uniform(0.02, 0.98)
        if np.min(np.abs(nodes - t)) < 1e-3:
            continue
        J = hm.evaluate(x, t)[1]
        assert J.shape == (3, 4)
        h = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (value(hm, xp, t) - value(hm, xm, t)) / (2 * h)
            assert np.allclose(J[:, j], fd, rtol=1e-5, atol=1e-7)
        fd_t = (value(hm, x, t + h) - value(hm, x, t - h)) / (2 * h)
        assert np.allclose(J[:, 3], fd_t, rtol=1e-5, atol=1e-6)
        checked += 1


# -- complementarity transform ----------------------------------------------

def neg_pos(y, t):
    tr = transform_derivs(y, t)
    return tr["neg"], tr["pos"]


def test_transform_product_identity():
    y = np.array([-3.0, -0.5, 0.0, 0.5, 3.0, 1e8, -1e8])
    for t in (1e-8, 1e-3, 0.5, 1.0):
        neg, pos = neg_pos(y, t)
        assert np.allclose(neg * pos, t ** KAPPA0, rtol=1e-12, atol=0)


def test_transform_limit_at_t0():
    y = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
    neg, pos = neg_pos(y, 0.0)
    assert np.array_equal(neg, np.maximum(-y, 0.0) ** KAPPA0)
    assert np.array_equal(pos, np.maximum(y, 0.0) ** KAPPA0)


def test_transform_rejects_bad_args():
    with pytest.raises(ValueError):
        neg_pos(np.zeros(1), -0.1)


def test_transform_no_cancellation_for_large_y():
    # (sqrt(y^2 + 4t) - y)/2 evaluated naively at y = 1e12 is pure roundoff;
    # the factored form keeps full relative accuracy: a_neg ~ t / y
    (neg,), (pos,) = neg_pos(np.array([1e12]), 1.0)
    assert neg == pytest.approx(1e-24, rel=1e-12)
    assert pos == pytest.approx(1e24, rel=1e-12)


def test_transform_derivs_match_finite_differences():
    rng = np.random.default_rng(11)
    y = rng.uniform(-4, 4, 40)
    for t in (1e-4, 0.2, 0.9):
        tr = transform_derivs(y, t)
        h = 1e-7
        neg_p, pos_p = neg_pos(y + h, t)
        neg_m, pos_m = neg_pos(y - h, t)
        assert np.allclose(tr["dneg_dy"], (neg_p - neg_m) / (2 * h),
                           rtol=1e-5, atol=1e-8)
        assert np.allclose(tr["dpos_dy"], (pos_p - pos_m) / (2 * h),
                           rtol=1e-5, atol=1e-8)
        ht = min(1e-7, t / 2)
        neg_p, pos_p = neg_pos(y, t + ht)
        neg_m, pos_m = neg_pos(y, t - ht)
        assert np.allclose(tr["dneg_dt"], (neg_p - neg_m) / (2 * ht),
                           rtol=1e-4, atol=1e-6)
        assert np.allclose(tr["dpos_dt"], (pos_p - pos_m) / (2 * ht),
                           rtol=1e-4, atol=1e-6)


def textbook_transform(y, t, kappa0):
    """transform_derivs written as the formulas read, one array per member
    of the pair: the reference its stacked form must equal bit for bit."""
    r = np.sqrt(y * y + 4.0 * t)
    a_big = (r + np.abs(y)) / 2.0
    a_small = t / np.where(a_big > 0, a_big, 1.0)
    r = np.where(r > 0, r, 1.0)
    a_pos = np.where(y >= 0, a_big, a_small)
    a_neg = np.where(y >= 0, a_small, a_big)
    neg, pos = a_neg ** kappa0, a_pos ** kappa0
    return {"neg": neg, "pos": pos,
            "dneg_dy": -kappa0 * neg / r, "dpos_dy": kappa0 * pos / r,
            "dneg_dt": kappa0 * a_neg ** (kappa0 - 1) / r,
            "dpos_dt": kappa0 * a_pos ** (kappa0 - 1) / r}


def test_transform_equals_the_textbook_formula_bit_for_bit():
    # signed zeros, y = 0 at t = 0 (the guarded 0/0), and |y| from 1e-10
    # to 1e10
    rng = np.random.default_rng(13)
    for _ in range(200):
        y = rng.uniform(-5.0, 5.0, 6) * 10.0 ** rng.integers(-10, 11, 6)
        y[rng.random(6) < 0.2] = 0.0
        y[rng.random(6) < 0.1] = -0.0
        for t in (0.0, 1e-300, 1e-8, rng.uniform(), 1.0):
            tr = transform_derivs(y, t)
            ref = textbook_transform(y, t, KAPPA0)
            assert tr.keys() == ref.keys()
            for key in ref:
                assert tr[key].tobytes() == ref[key].tobytes(), (key, y, t)


@given(y=st.floats(-50.0, 50.0), t=st.floats(1e-10, 1.0))
def test_transform_identity_property(y, t):
    neg, pos = neg_pos(np.array([y]), t)
    assert neg[0] * pos[0] == pytest.approx(t ** KAPPA0, rel=1e-10)


# -- start multiplier --------------------------------------------------------

def test_solve_start_y_matches_bisection_oracle():
    B = np.vstack([np.eye(2), -np.eye(2)])
    b = np.full(4, 10.0)
    x0 = np.array([0.3, -1.2])
    y = solve_start_y(B, b, x0)
    c = b - B @ x0
    for k in range(4):
        root = brentq(
            lambda v: neg_pos(np.array([v]), 1.0)[1][0] - c[k],
            -100.0, 100.0, xtol=1e-14)
        assert y[k] == pytest.approx(root, abs=1e-12)
    _, pos = neg_pos(y, 1.0)
    assert np.allclose(pos, c, rtol=1e-13)


def test_solve_start_y_rejects_boundary_start():
    B = np.ones((1, 1))
    with pytest.raises(ValueError, match="interior"):
        solve_start_y(B, np.array([1.0]), np.array([1.0]))


# -- smoothed-KKT map --------------------------------------------------------

def test_kkt_start_point_is_a_root_at_t1():
    for problem, n in (("svi", 2), ("market", 3)):
        hm = kkt_map(problem, n)
        u1 = hm.start_point()
        r = value(hm, u1, 1.0)
        assert np.linalg.norm(r, np.inf) <= 1e-12
        # block 1 vanishes identically at t = 1, not just numerically
        assert np.array_equal(r[:hm.n], np.zeros(hm.n))


def test_kkt_dimensions():
    hm = kkt_map("svi", 2)
    assert (hm.n, hm.M, hm.dim) == (2, 4, 6)
    hm = kkt_map("market", 3)
    assert (hm.n, hm.M, hm.dim) == (3, 6, 9)


def test_form_follows_from_constraints():
    bm = plain_map().blended
    with pytest.raises(ValueError):
        HomotopyMap(blended=bm, B=np.eye(3))
    hm = HomotopyMap(blended=bm)
    assert hm.M == 0 and hm.t_end == 0.0


@pytest.mark.parametrize("B, b", [
    (np.eye(3), np.ones(2)),        # one b entry per row of B
    (np.ones((2, 2)), np.ones(2)),  # one B column per state component
    (np.ones(3), np.ones(1)),       # B must be a matrix
], ids=["b-rows", "B-columns", "B-1d"])
def test_constraint_dimensions_must_match(B, b):
    with pytest.raises(ValueError, match="dimensions"):
        HomotopyMap(blended=plain_map().blended, B=B, b=b)


def test_kkt_zero_carries_feasibility_and_complementarity():
    # at a root of block 2, slack = pos(y, t) >= 0 so B x <= b, and the
    # multiplier neg(y, t) times the slack equals t^KAPPA0 componentwise
    hm = kkt_map("svi", 1, N=40, L=2)
    t = 0.3
    x = np.array([0.8])
    # pick y solving block 2 exactly, then check the advertised structure
    c = hm.b - hm.B @ x
    y = c ** (1.0 / KAPPA0) - t / c ** (1.0 / KAPPA0)
    neg, pos = neg_pos(y, t)
    assert np.allclose(hm.B @ x + pos, hm.b, rtol=1e-13)
    assert np.all(pos >= 0) and np.all(neg >= 0)
    assert np.allclose(neg * pos, t ** KAPPA0, rtol=1e-12)


def test_jac_kkt_structure_and_finite_differences():
    # svi n = 2 and the assembled market map, both bent by alpha != 0;
    # market prices are drawn inside the box, where log p is defined
    cases = (("svi", 2, np.array([0.7, -0.4]), (-1.0, 1.0)),
             ("market", 3, np.array([0.5, -0.3, 0.2]), (0.1, 0.9)))
    for problem, n, alpha, (lo, hi) in cases:
        hm = kkt_map(problem, n, N=80, L=3, alpha=alpha)
        M, dim = hm.M, hm.dim
        rng = np.random.default_rng(3)
        nodes = np.asarray(hm.blended.schedule.nodes)
        checked = 0
        while checked < 40:
            u = np.concatenate([rng.uniform(lo, hi, n), rng.uniform(-2, 2, M)])
            t = rng.uniform(0.02, 0.98)
            if np.min(np.abs(nodes - t)) < 1e-3:
                continue
            J = hm.evaluate(u, t)[1]
            assert J.shape == (dim, dim + 1)
            assert np.array_equal(J[n:, :n], hm.B)  # block 2 is linear in x
            h = 1e-6
            for j in range(dim):
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                fd = (value(hm, up, t) - value(hm, um, t)) / (2 * h)
                assert np.allclose(J[:, j], fd, rtol=1e-5, atol=1e-6)
            fd_t = (value(hm, u, t + h) - value(hm, u, t - h)) / (2 * h)
            assert np.allclose(J[:, dim], fd_t, rtol=1e-5, atol=1e-5)
            checked += 1


def test_constrained_assembly_caches_nothing_at_set_up():
    # bench/run.py times build_run as set-up: what the constrained assembly
    # keeps across evaluations is made on the first one, as the blend's
    # sample table is
    _, hm = build_run(RunConfig(problem="market", n=3, N=100, L=4))
    assert "_J_constrained" not in vars(hm)
    u = hm.start_point()
    h, J = hm.evaluate(u, 0.5)
    assert "_J_constrained" in vars(hm)
    # each evaluation returns its own J; the cached blocks are not written
    J[:] = np.nan
    h2, J2 = hm.evaluate(u, 0.5)
    assert np.isfinite(J2).all() and np.array_equal(h2, h)
    assert np.array_equal(J2[hm.n:, :hm.n], hm.B)


# -- in-place assembly equals the textbook formula -------------------------

def textbook_evaluate(hm, u, t):
    """HomotopyMap.evaluate written as the formulas read, one fresh array
    per term: the reference its in-place assembly must equal bit for bit."""
    n, M = hm.n, hm.M
    x, y = u[:n], u[n:]
    d, dd_dt, dd_dx = hm.blended.evaluate(x, t)
    F, dF_dt, dF_dx = d, dd_dt, dd_dx
    if M:
        tr = transform_derivs(y, t)
        F = -d + hm.B.T @ tr["neg"]
        dF_dt = -dd_dt + hm.B.T @ tr["dneg_dt"]
        dF_dx = -dd_dx
    h = (1.0 - t) * F + t * (x - hm.x0) - t * (1.0 - t) * hm.alpha
    if M:
        h = np.concatenate([h, hm.B @ x + tr["pos"] - hm.b])
    J = np.empty((n + M, n + M + 1))
    J[:n, :n] = (1.0 - t) * dF_dx + t * np.eye(n)
    J[:n, n + M] = (-F + (1.0 - t) * dF_dt + (x - hm.x0)
                    - (1.0 - 2.0 * t) * hm.alpha)
    if M:
        J[:n, n:n + M] = (1.0 - t) * (hm.B.T * tr["dneg_dy"])
        J[n:, :n] = hm.B
        J[n:, n:n + M] = np.diag(tr["dpos_dy"])
        J[n:, n + M] = tr["dpos_dt"]
    return h, J


@pytest.mark.parametrize("problem", ["sin", "market"])
def test_evaluate_equals_the_textbook_formula_bit_for_bit(problem):
    # bytes, not values: -0.0 and +0.0 differ, and x* is fingerprinted by
    # its bytes; t = 1, a node, an interior t and the terminal level
    if problem == "sin":
        hm = plain_map(alpha=np.array([0.3, -0.8, 0.1]))
        rng = np.random.default_rng(5)
        us = [rng.uniform(-2.0, 2.0, 3) for _ in range(4)] + [np.array([2.0, 0.0, 0.0])]
    else:
        hm = kkt_map("market", 3, N=80, L=3, alpha=np.array([0.5, -0.3, 0.2]))
        rng = np.random.default_rng(6)
        us = [np.concatenate([rng.uniform(0.1, 0.9, 3), rng.uniform(-2.0, 2.0, 6)])
              for _ in range(4)] + [hm.start_point()]
    node = hm.blended.schedule.nodes[1]
    for u in us:
        for t in (1.0, node, 0.6180339887, hm.t_end):
            h, J = hm.evaluate(u, t)
            h_ref, J_ref = textbook_evaluate(hm, u, t)
            assert h.tobytes() == h_ref.tobytes(), (u, t)
            assert J.tobytes() == J_ref.tobytes(), (u, t)
    if problem == "sin":
        # at t = 1, (1 - t) dd/dx is -0.0 wherever dd/dx is negative or -0.0;
        # the formula's + t * 0.0 makes those entries +0.0, and so must J
        x = np.array([2.0, 0.0, 0.0])
        assert np.signbit(hm.blended.evaluate(x, 1.0)[2]).any()
        Jx = hm.evaluate(x, 1.0)[1][:, :3]
        assert Jx[~np.eye(3, dtype=bool)].tobytes() == np.zeros(6).tobytes()
