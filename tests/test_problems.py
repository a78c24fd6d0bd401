import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import root
from scipy.special import iv

from grsaa.newton import NewtonFailure
from grsaa.sampling import draw_samples
from grsaa.saa import BlendedMap
from grsaa.schedule import make_schedule
from grsaa.tracer import trace
from grsaa import problems as P


# -- market ------------------------------------------------------------------

def market_residual_direct(p, xi):
    """CES excess demand from the untransformed power formula.

    Safe only for moderate substitution values; used as an independent
    oracle for the shifted production kernel, which returns its negative.
    """
    W = np.array([[1.0, 2.0 / 3.0, 2.0],
                  [1.5, 1.0, 3.0],
                  [0.5, 1.0 / 3.0, 1.0]])
    e = 1.0 / (xi - 1.0)
    out = np.empty(3)
    for i in range(3):
        denom = sum(W[i, j] ** e * p[j] ** (1.0 + e) for j in range(3))
        out[i] = p.sum() * p[i] ** e / denom
    return out


def test_market_residual_matches_direct_formula():
    rng = np.random.default_rng(0)
    for k in range(51):
        p = rng.uniform(0.05, 1.0, 3)
        xi = rng.uniform(-1.0, 0.9) if k < 50 else -1.0  # and the lower end
        got = -P.market_kernel(p, np.array([[xi]]))[0]
        want = market_residual_direct(p, xi)
        assert np.allclose(got, want, rtol=1e-12)


def test_market_residual_hand_value_cobb_douglas():
    # xi = 0 gives e = -1: demand_i = sum(p) (1/p_i) / sum_j (1/W_ij)
    p = np.array([0.5, 0.25, 0.25])
    want1 = (1.0 / 0.5) / (1.0 + 1.5 + 0.5)  # = 2/3
    got = -P.market_kernel(p, np.zeros((1, 1)))[0]
    assert got[0] == pytest.approx(want1, rel=1e-14)


def test_market_jacobian_hand_value_cobb_douglas():
    # xi = 0 gives e = -1 and excess demand S a_i / (3 p_i) with S = sum(p)
    # and a = (1, 1.5, 0.5), whose Jacobian is a_i / (3 p_i) -
    # d_ij S a_i / (3 p_i^2); the kernel returns the negatives of both
    a = np.array([1.0, 1.5, 0.5])
    for p in ([0.5, 0.25, 0.25], [0.4, 0.45, 0.15], [1e-3, 1.0, 0.3]):
        p = np.array(p)
        S = p.sum()
        F, J = P.market_kernel(p, np.zeros((1, 1)), np.ones(1))
        F, J = -F, -J
        assert np.allclose(F[0], S * a / (3 * p), rtol=1e-13, atol=0.0)
        want = np.repeat((a / (3 * p))[:, None], 3, axis=1)
        want -= np.diag(S * a / (3 * p ** 2))
        assert np.allclose(J, want, rtol=1e-13, atol=0.0)


def test_market_kernels_finite_at_extremes():
    # both ends of the xi range (the upper one clipped) at every corner of
    # the price box
    xis = np.array([[-1.0], [1.0 - 1e-9]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for corner in np.ndindex(2, 2, 2):
            p = np.where(np.array(corner) == 1, 1.0, 1e-3)
            F, J = P.market_kernel(p, xis, np.array([0.5, 0.5]))
            assert np.all(np.isfinite(F)) and np.all(np.isfinite(J))
            assert np.array_equal(F, P.market_kernel(p, xis))
    # outside the price domain every row has a non-finite entry, which the
    # map refuses upstream
    with np.errstate(invalid="ignore", divide="ignore"):
        for p in ([0.0, 0.5, 0.5], [-0.1, 0.5, 0.5]):
            F = P.market_kernel(np.array(p), np.array([[-1.0], [0.0], [0.5]]))
            assert not np.isfinite(F).all(axis=1).any()


def test_market_residual_is_stable_near_xi_one():
    # the direct power formula overflows as xi -> 1; the shifted kernel
    # must stay finite there (after the documented clip)
    p = np.array([0.4, 0.45, 0.15])
    out = P.market_kernel(p, np.array([[1.0 - 1e-9]]))
    assert np.all(np.isfinite(out))


def check_weighted_jacobian(kernel, xs, xis, ws, rtol, atol):
    """The kernel's sum_k w_k J_k against central differences (h = 1e-7):
    per sample with one-hot w, and for each random w in ws against
    sum_k w_k FD_k."""
    h = 1e-7
    q = xis.shape[0]
    for x, w in zip(xs, ws):
        n = x.size
        fd = np.empty((q, n, n))
        for j in range(n):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, :, j] = (kernel(xp, xis) - kernel(xm, xis)) / (2 * h)
        for k, onehot in enumerate(np.eye(q)):
            _, J = kernel(x, xis, onehot)
            assert J.shape == (n, n)
            assert np.allclose(J, fd[k], rtol=rtol, atol=atol)
        _, J = kernel(x, xis, w)
        assert np.allclose(J, np.einsum("k,kij->ij", w, fd), rtol=rtol, atol=atol)


def test_market_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    xis = rng.uniform(-1.0, 0.8, (5, 1))
    ps = [rng.uniform(0.05, 1.0, 3) for _ in range(100)]
    ws = rng.uniform(0.0, 1.0, (100, 5))
    check_weighted_jacobian(P.market_kernel, ps, xis, ws,
                            rtol=1e-5, atol=1e-7)


def market_jacobian_softmax(p, e, w):
    """The market kernel as it was first written, in log space: one
    max-shifted softmax column s_k over the goods per sample, shares s_k/p
    and J = (S/p_j)(d_ij b_i - C_ij) + a_i with C = share^T (w (1+e) s).
    The reference the per-point shifted kernel, which returns minus the
    excess demand, is compared with."""
    l = np.log(p)
    v = np.multiply.outer(l, 1.0 + e) - np.multiply.outer(P._LOG_A, e)
    v -= v.max(axis=0)
    softmax = np.exp(v)
    softmax /= softmax.sum(axis=0)
    share, softmax = (softmax / p[:, None]).T, softmax.T
    S = p.sum()
    J = np.diag((w * e) @ share) - share.T @ (softmax * (w * (1.0 + e))[:, None])
    J *= S / p
    J += (w @ share)[:, None]
    return S * share, J


# Both kernels round the exponent e c, |c| <= |log 1e-3| + |log 0.5| < 7.7
# in the price box, to a few ulps of |e| |c|, and exp turns that absolute
# error into a relative one: F and J move by O(eps (1 + |e|)), and |e|
# reaches 1e6 at the clip.  Measured over these cases: F within 10.4 and J
# within 3.2 of eps (1 + |e|) (J against its largest entry and the batch's
# largest |e|); the bound allows 32.  Where exp underflows through the
# subnormals neither kernel keeps relative accuracy, and F is below 1e-300.
SHIFT_RTOL = 32 * np.finfo(float).eps
UNDERFLOW_ATOL = 1e-300


@pytest.mark.parametrize("seed", [0, 32])
def test_market_kernel_equals_the_softmax_reference(seed):
    N = 10 ** 4
    xis = draw_samples(N, seed=seed).samples.copy()
    if seed == 32:
        assert xis[9616, 0] > 1.0 - 1e-6  # clipped by the kernel
    # the ends of the xi range: the lower one and the clipped upper one
    xis[0], xis[3], xis[5] = -1.0, 1.0 - 1e-6, 1.0 - 1e-9
    rng = np.random.default_rng(12)
    corners = [np.where(np.array(c) == 1, 1.0, 1e-3) for c in np.ndindex(2, 2, 2)]
    # prices near p ~ a, where the goods' shifted exponents e (c_j - c*)
    # stay moderate at large |e|
    a = np.exp(P._LOG_A) / 1.5
    near_ties = [a * rng.uniform(0.01, 1.0)
                 * (1.0 + rng.uniform(-1.0, 1.0, 3) * 10.0 ** -rng.integers(1, 9))
                 for _ in range(20)]
    ps = [rng.uniform(1e-3, 1.0, 3) for _ in range(20)] + corners + near_ties
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "clipped CES", RuntimeWarning)
        tab = P._market_table(xis)
    for q in (1, 7, 257, N):
        e = tab[0, :q]
        for p in ps:
            w = rng.uniform(0.0, 1.0, q)
            F, J = P.market_kernel(p, xis[:q], w, tab[:, :q])
            F, J = -F, -J
            F_ref, J_ref = market_jacobian_softmax(p, e, w)
            bound = SHIFT_RTOL * (1.0 + np.abs(e))[:, None] * F_ref + UNDERFLOW_ATOL
            assert np.all(np.abs(F - F_ref) <= bound), (q, p)
            scale = np.abs(J_ref).max() * (1.0 + np.abs(e).max())
            assert np.abs(J - J_ref).max() <= SHIFT_RTOL * scale, (q, p)


@given(p=st.tuples(*[st.floats(1e-3, 1.0)] * 3),
       xis=st.lists(st.one_of(st.floats(-1.0, 1.0, exclude_max=True),
                              st.floats(1.0 - 1e-6, 1.0, exclude_max=True)),
                    min_size=1, max_size=20))
def test_market_walras_law_property(p, xis):
    # p . f(p, xi) = -sum(p) for every sample (f is minus the excess
    # demand), up to rounding, with no
    # overflow, division by zero or invalid operation anywhere in the box
    # and on all of [-1, 1), the clipped end included (underflow to 0 is
    # allowed)
    p = np.array(p)
    xis = np.array(xis)[:, None]
    w = np.linspace(0.0, 1.0, xis.shape[0])
    with warnings.catch_warnings(), \
            np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.filterwarnings("ignore", "clipped CES", RuntimeWarning)
        F = P.market_kernel(p, xis)
        F_jac, J = P.market_kernel(p, xis, w)
    assert np.array_equal(F, F_jac) and np.all(np.isfinite(J))
    assert np.allclose(F @ p, -p.sum(), rtol=1e-14, atol=0.0)


def test_ces_clip_is_reported_once_per_solve():
    # sample 9616 of seed 32 has xi > 1 - 1e-6; every kernel call whose
    # prefix reaches it clips it, but the solve reports the clip once
    inst = P.market_instance()
    samples = draw_samples(10 ** 4, seed=32)
    assert samples.samples[9616, 0] > 1.0 - 1e-6
    hm = P.build_homotopy(inst, samples, make_schedule("uniform", 10 ** 4, 100))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        result = trace(hm)
    clips = [w for w in caught if "clipped CES" in str(w.message)]
    assert len(clips) == 1 and clips[0].category is RuntimeWarning
    assert result.status == "converged"
    # the clipped value is unchanged, so is the answer
    x_ref = np.array([0.4000000000000002, 0.44999999999942464, 0.15000000000057512])
    assert np.allclose(result.x_star, x_ref, rtol=0.0, atol=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert np.array_equal(P.market_kernel(x_ref, samples.samples[9616:9617]),
                              P.market_kernel(x_ref, np.array([[1.0 - 1e-6]])))


KERNEL_SIZES = [("market", 3), ("sin", 1), ("sin", 3), ("sin", 8), ("svi", 1), ("svi", 2)]


def kernel_only_system(n):
    """sin's kernel behind a signature without tab, in a system without
    tabulate: its derived residual(x, xis) makes the three-argument call
    kernel(x, xis, None)."""
    return dataclasses.replace(P.sin_instance(n).system, tabulate=None,
                               jacobian=lambda x, xis, w=None: P.sin_kernel(x, xis, w))


@pytest.mark.parametrize("name, n", KERNEL_SIZES + [("kernel-only", 3)])
def test_fused_jacobian_rows_equal_residual_bit_for_bit(name, n):
    # the corrector reads F from the weighted pass and the landing Newton from
    # residual, the kernel with w = None: both must see one map
    system = (kernel_only_system(n) if name == "kernel-only"
              else P.get_instance(name, n).system)
    rng = np.random.default_rng(5)
    xis = rng.uniform(-1.0, 1.0, (257, 1))
    xis[100] = 1.0 - 1e-9  # clipped by the market kernel
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(20):
            x = rng.uniform(system.box_lo, system.box_hi)
            F, J = system.jacobian(x, xis, np.full(257, 1.0 / 257))
            assert J.shape == (n, n)
            assert np.array_equal(F, system.residual(x, xis))


@pytest.mark.parametrize("name, n", KERNEL_SIZES)
def test_kernel_rows_are_stored_column_major(name, n):
    # the blend sums F over its samples (axis 0); column-major storage makes
    # each of those sums run over one contiguous column
    inst = P.get_instance(name, n)
    q = 257
    xis = np.random.default_rng(6).uniform(-1.0, 1.0, (q, 1))
    x = inst.system.x0
    for F in (inst.system.residual(x, xis),
              inst.system.jacobian(x, xis, np.full(q, 1.0 / q))[0]):
        assert F.shape == (q, n)
        assert F.flags.f_contiguous


@pytest.mark.parametrize("name, n", [("market", 3)] + [("sin", n) for n in range(1, 15)]
                         + [("svi", n) for n in range(1, 5)])
def test_kernel_rows_do_not_depend_on_the_batch_size(name, n):
    # the blend reads f^{l-1} from the head of a q_l pass, and a separate
    # q_{l-1} pass must give the same bits: a row may not depend on q
    inst = P.get_instance(name, n)
    rng = np.random.default_rng(8)
    xis = rng.uniform(-1.0, 1.0, (300, 1))
    for _ in range(5):
        x = rng.uniform(inst.system.box_lo, inst.system.box_hi)
        full = inst.system.residual(x, xis)
        for q in (1, 2, 3, 5, 8, 17, 64, 100, 299):
            assert np.array_equal(inst.system.residual(x, xis[:q]), full[:q])
            F, _ = inst.system.jacobian(x, xis[:q], np.full(q, 1.0 / q))
            assert np.array_equal(F, full[:q])


@pytest.mark.parametrize("name, n", [("market", 3), ("sin", 3), ("sin", 8),
                                     ("svi", 1), ("svi", 2)])
def test_tabulated_kernels_equal_raw_sample_calls_bit_for_bit(name, n):
    # a blended map tabulates all N samples once and passes each kernel call
    # the table's first q columns; that must give the raw-sample call's bits.
    # Seed 32 holds the sample market clips (row 9616), and p <= 0 gives
    # market non-finite rows
    system = P.get_instance(name, n).system
    N = 10 ** 4
    xis = draw_samples(N, seed=32).samples
    rng = np.random.default_rng(10)
    xs = [rng.uniform(system.box_lo, system.box_hi) for _ in range(3)]
    if name == "market":
        xs += [np.array([0.4, 0.0, 0.1]), np.array([0.4, 0.3, -0.1])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        tab = system.tabulate(xis)
        assert tab.flags.c_contiguous and tab.shape[1] == N
        for q in (1, 7, 257, N):
            w = rng.uniform(0.0, 1.0, q)
            for x in xs:
                F, J = system.jacobian(x, xis[:q], w, tab[:, :q])
                F_raw, J_raw = system.jacobian(x, xis[:q], w)
                assert F.tobytes() == F_raw.tobytes(), (q, x)
                assert J.tobytes() == J_raw.tobytes(), (q, x)
                R = system.residual(x, xis[:q], tab[:, :q])
                assert R.tobytes() == system.residual(x, xis[:q]).tobytes()
    if name == "market":
        assert not np.isfinite(F).all()  # the p <= 0 rows are compared too


def test_market_equilibrium_arithmetic():
    p = P.MARKET_SOLUTION
    Ap = P.MARKET_A @ p
    # first zero-profit row binds exactly at the reported equilibrium
    assert Ap[0] == pytest.approx(0.0, abs=1e-15)
    assert Ap[1] < 0
    assert p.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(p > 0)


def test_market_constraint_layout():
    assert P.MARKET_B.shape == (6, 3)
    assert np.array_equal(P.MARKET_B[:2], P.MARKET_A)
    assert np.array_equal(P.MARKET_B[2:5], -np.eye(3))
    assert np.array_equal(P.MARKET_B[5], np.ones(3))
    assert np.array_equal(P.MARKET_b, np.array([0, 0, 0, 0, 0, 1.0]))


def test_market_start_point_is_strictly_interior():
    inst = P.market_instance()
    slack = P.MARKET_b - P.MARKET_B @ inst.system.x0
    assert np.all(slack > 0)


def market_bm(N=20000, seed=0):
    inst = P.market_instance()
    samples = draw_samples(N, seed=seed)
    return BlendedMap(system=inst.system, samples=samples,
                      schedule=make_schedule("uniform", N, 1))


def test_market_verify_accepts_the_equilibrium():
    bm = market_bm()
    report = P.market_verify(P.MARKET_SOLUTION, bm, tol=1e-6)
    assert report["feasible"]
    assert 0 in report["active_rows"] and 5 in report["active_rows"]
    assert report["multipliers_nonnegative"]
    # stationarity holds up to Monte Carlo error in the sample average
    assert report["stationarity_residual"] <= 0.05


def test_market_verify_rejects_infeasible_point():
    bm = market_bm(N=100)
    report = P.market_verify(np.array([0.6, 0.5, 0.3]), bm)
    assert not report["feasible"]


# -- sin system --------------------------------------------------------------

def test_sin_residual_hand_values():
    # x = (1, -0.5), xi = 0.2: f1 = 1 - 5 sin(0.7), f2 = -0.5 - 5 sin(1.2)
    got = P.sin_kernel(np.array([1.0, -0.5]), np.array([[0.2]]))[0]
    assert got[0] == pytest.approx(1.0 - 5.0 * math.sin(0.7), rel=1e-15)
    assert got[1] == pytest.approx(-0.5 - 5.0 * math.sin(1.2), rel=1e-15)
    assert got[0] == pytest.approx(-2.2210884371, abs=1e-9)
    assert got[1] == pytest.approx(-5.1601954298, abs=1e-9)


def test_sin_expectation_against_quadrature():
    x = np.array([0.3, -0.2, 0.5])
    want = np.empty(3)
    for i in range(3):
        a = (i + 1) * x.sum()
        val, _ = quad(lambda s: 5.0 * math.sin(a + s), -1.0, 1.0, epsabs=1e-13)
        want[i] = x[i] - 0.5 * val
    assert np.allclose(P.sin_expectation(x), want, rtol=1e-12, atol=1e-13)


def test_sin_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    xis = rng.uniform(-1, 1, (4, 1))
    xs = [rng.uniform(-2, 2, 3) for _ in range(100)]
    ws = rng.uniform(0.0, 1.0, (100, 4))
    check_weighted_jacobian(P.sin_kernel, xs, xis, ws,
                            rtol=1e-5, atol=1e-6)


def test_sin_monte_carlo_agrees_with_expectation():
    inst = P.sin_instance(2)
    s = draw_samples(10 ** 5, seed=9)
    x = np.array([0.7, -0.3])
    mc = inst.system.residual(x, s.samples).mean(axis=0)
    assert np.allclose(mc, P.sin_expectation(x), atol=0.05)


def test_angle_addition_kernels_match_direct_formulas():
    # sin and svi evaluate sin(a_i + xi) and cos(a_i + xi), a_i = i * sum(x),
    # by angle addition; against the direct formulas on the box [-10, 10]^n,
    # F to absolute 1e-12 and sum_k w_k J_k to 1e-12 relative to its largest
    # entry (tolerances fixed before measuring)
    rng = np.random.default_rng(7)
    xis = rng.uniform(-1.0, 1.0, (64, 1))
    xi = xis[:, 0]
    for n in range(1, 9):
        i = np.arange(1, n + 1)
        for _ in range(200):
            x = rng.uniform(-10.0, 10.0, n)
            w = rng.uniform(0.0, 1.0, 64)
            phase = i[None, :] * x.sum() + xi[:, None]
            direct = {
                "sin": (x - 5.0 * np.sin(phase), -5.0 * i * np.cos(phase)),
                "svi": (x - np.exp(np.cos(phase)),
                        i * np.exp(np.cos(phase)) * np.sin(phase)),
            }
            for name, (F_want, coef) in direct.items():
                J_want = w.sum() * np.eye(n) + (w @ coef)[:, None]
                F, J = P.get_instance(name, n).system.jacobian(x, xis, w)
                assert np.max(np.abs(F - F_want)) <= 1e-12
                assert np.max(np.abs(J - J_want)) <= 1e-12 * np.max(np.abs(J_want))


def textbook_trig_kernels(x, xis, w):
    """sin's and svi's fused kernels with one fresh array per term: the
    reference that their in-place angle-addition code must equal bit for bit."""
    i = np.arange(1.0, x.size + 1)
    a = i * x.sum()
    sa, ca = np.sin(a), np.cos(a)
    xi = xis.reshape(-1)
    T = np.array((np.cos(xi), np.sin(xi)))

    def combine(u, v):
        B = np.array((u, v))[:, :, None] * T[:, None, :]
        return B[0] + B[1]

    def eye_plus_rank1(coef):
        J = np.repeat(coef[:, None], x.size, axis=1)
        J.flat[::x.size + 1] += w.sum()
        return J

    u = T @ w
    sa5, ca5 = -5.0 * sa, -5.0 * ca
    E = np.exp(combine(ca, -sa))
    return {"sin": ((combine(sa5, ca5) + x[:, None]).T,
                    eye_plus_rank1(i * (ca5 * u[0] - sa5 * u[1]))),
            "svi": ((x[:, None] - E).T,
                    eye_plus_rank1(i * ((combine(sa, ca) * E) @ w)))}


def test_trig_kernels_equal_the_textbook_terms_bit_for_bit():
    rng = np.random.default_rng(9)
    xis = rng.uniform(-1.0, 1.0, (100, 1))
    for n in (1, 3, 8):
        for q in (0, 1, 55, 100):  # q = 0 is the pass at t = 1
            x = rng.uniform(-10.0, 10.0, n)
            w = rng.uniform(0.0, 1.0, q)
            want = textbook_trig_kernels(x, xis[:q], w)
            for name, (F_want, J_want) in want.items():
                system = P.get_instance(name, n).system
                F, J = system.jacobian(x, xis[:q], w)
                assert F.tobytes() == F_want.tobytes(), (name, n, q)
                assert J.tobytes() == J_want.tobytes(), (name, n, q)
                assert system.residual(x, xis[:q]).tobytes() == F_want.tobytes()


# -- svi ---------------------------------------------------------------------

def exp_cos_mean_series(a):
    """E exp(cos(a + xi)) by the modified-Bessel cosine series."""
    total = iv(0, 1.0)
    for k in range(1, 25):
        total += 2.0 * iv(k, 1.0) * math.cos(k * a) * math.sin(k) / k
    return total


def test_svi_residual_hand_value():
    got = P.svi_kernel(np.zeros(2), np.zeros((1, 1)))[0]
    assert np.allclose(got, -math.e, rtol=1e-15)


def test_svi_expectation_against_bessel_series():
    x = np.array([0.4, -0.9])
    want = x - np.array([exp_cos_mean_series((i + 1) * x.sum())
                         for i in range(2)])
    assert np.allclose(P.svi_expectation(x), want, rtol=1e-11, atol=1e-12)


def test_svi_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    xis = rng.uniform(-1, 1, (4, 1))
    xs = [rng.uniform(-2, 2, 2) for _ in range(100)]
    ws = rng.uniform(0.0, 1.0, (100, 4))
    check_weighted_jacobian(P.svi_kernel, xs, xis, ws,
                            rtol=1e-5, atol=1e-6)


def test_svi_instance_box_constraints():
    inst = P.svi_instance(2)
    assert np.array_equal(inst.B, np.vstack([np.eye(2), -np.eye(2)]))
    assert np.array_equal(inst.b, np.full(4, 10.0))


# -- oracles and registry ----------------------------------------------------

def test_oracle_solve_sin_root():
    inst = P.sin_instance(3)
    x = P.oracle_solve(inst, np.full(3, 0.1))
    assert np.linalg.norm(P.sin_expectation(x), np.inf) <= 1e-12


def test_oracle_solve_svi_root():
    inst = P.svi_instance(1)
    x = P.oracle_solve(inst, np.array([1.0]))
    assert np.linalg.norm(P.svi_expectation(x), np.inf) <= 1e-12


def test_oracle_solve_is_start_free():
    # svi n = 2 has one expectation root, and every start finds it: the
    # instance's own x0, a box corner and a traced answer included
    inst = P.svi_instance(2)
    samples = draw_samples(1000, seed=0)
    traced = trace(P.build_homotopy(inst, samples,
                                    make_schedule("uniform", 1000, 10))).x_star
    for start in (np.zeros(2), np.ones(2), np.array([-10.0, 10.0]), traced):
        x = P.oracle_solve(inst, start)
        assert np.allclose(x, [1.1386, 0.4354], atol=1e-4)


def test_oracle_solve_raises_where_it_finds_no_root(monkeypatch):
    # the residual gate: a census row that is not a root, a NaN row included
    for fake_root in (1.0, np.nan):
        monkeypatch.setattr(P, "expectation_roots",
                            lambda inst: np.full((1, inst.system.n), fake_root))
        with pytest.raises(NewtonFailure, match="census root"):
            P.oracle_solve(P.svi_instance(2), np.zeros(2))


@pytest.mark.parametrize("name, n, count", [
    ("sin", 3, 11), ("sin", 5, 15), ("sin", 8, 35), ("sin", 20, 87),
    ("svi", 1, 1), ("svi", 2, 1), ("svi", 3, 3), ("svi", 8, 5)])
def test_expectation_roots_census(name, n, count):
    # counts checked against the sign changes of phi on a 2e7-point grid;
    # at sin n = 20 one root has slope 840 against the bound lip = 884, so a
    # cell test without slack for rounding drops it
    roots = P.expectation_roots(P.get_instance(name, n))
    assert roots.shape == (count, n)
    expectation = P.sin_expectation if name == "sin" else P.svi_expectation
    for x in roots:
        assert np.linalg.norm(expectation(x), np.inf) <= 1e-12
    assert np.all(np.diff(roots.sum(axis=1)) > 0)  # distinct, in order of s
    if name == "sin":  # x = 0 is a root at every n
        assert np.any(np.all(roots == 0.0, axis=1))


@pytest.mark.parametrize("seed", [8, 9, 11, 13, 15])
def test_oracle_solve_reaches_tolerance_from_traced_answers(seed):
    # criterion 3's N = 100 solves at these seeds: the census root meets the
    # 1e-12 residual, and MINPACK's hybr, with its own finite-difference
    # Jacobian, reaches the same root from x*
    N = 100
    inst = P.sin_instance(3)
    samples = draw_samples(N, seed=seed)
    result = trace(P.build_homotopy(inst, samples, make_schedule("uniform", N, 4)))
    x = P.oracle_solve(inst, result.x_star)
    assert np.linalg.norm(P.sin_expectation(x), np.inf) <= 1e-12
    sol = root(P.sin_expectation, result.x_star, method="hybr")
    assert sol.success
    assert np.linalg.norm(sol.x - x, np.inf) <= 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_svi_trace_agrees_with_oracle(n):
    # the traced answer, not just the status: 0.05 is well above the sampling
    # error at N = 10^4
    inst = P.svi_instance(n)
    N, L = 10 ** 4, 1000
    samples = draw_samples(N, seed=0)
    hm = P.build_homotopy(inst, samples, make_schedule("uniform", N, L))
    result = trace(hm)
    assert result.status == "converged"
    oracle = P.oracle_solve(inst, inst.system.x0)
    assert np.linalg.norm(result.x_star - oracle, np.inf) <= 0.05


def test_oracle_solve_rejects_market():
    with pytest.raises(ValueError):
        P.oracle_solve(P.market_instance(), np.ones(3))


def test_get_instance_registry():
    assert P.get_instance("sin", 5).system.n == 5
    assert P.get_instance("market").B is not None
    assert P.get_instance("sin", 2).B is None
    with pytest.raises(ValueError):
        P.get_instance("heat")
