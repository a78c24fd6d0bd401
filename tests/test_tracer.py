import numpy as np
import pytest
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dlange

from grsaa.homotopy import HomotopyMap
from grsaa.sampling import SampleSet, draw_samples
from grsaa.saa import BlendedMap, StochasticSystem
from grsaa.schedule import make_schedule
from grsaa.tracer import TraceConfig, correct, path_to_csv, tangent, trace
from grsaa import problems as P
from grsaa import tracer


def make_hm(problem="sin", n=3, N=1500, L=4, seed=0, schedule="uniform"):
    inst = P.get_instance(problem, n)
    samples = draw_samples(N, seed=seed)
    return P.build_homotopy(inst, samples, make_schedule(schedule, N, L))


def path_tol(hm, t):
    """The path corrector's tolerance at level t, clamped to [0, 1]:
    max(_CORRECTOR_TOL, c / sqrt(q_l)), q_l the sample size of the segment
    holding t."""
    sched = hm.blended.schedule
    q = sched.q[sched.blend(min(max(t, 0.0), 1.0))[0]]
    return max(tracer._CORRECTOR_TOL, tracer._PATH_TOL_C / np.sqrt(q))


# -- tangent -----------------------------------------------------------------

def minus_e_t(size):
    """The orienting row of the first step: t must initially decrease."""
    row = np.zeros(size)
    row[-1] = -1.0
    return row


def test_tangent_hand_example():
    # kernel of [2 1] is span{(1, -2)}; normalized and oriented downward in
    # the last component
    tau, _ = tangent(np.array([[2.0, 1.0]]), prev=minus_e_t(2))
    assert np.allclose(tau, np.array([1.0, -2.0]) / np.sqrt(5.0))


def test_tangent_first_step_points_down_in_t():
    J = np.hstack([np.eye(3), np.zeros((3, 1))])
    tau, _ = tangent(J, prev=minus_e_t(4))
    assert np.array_equal(tau, [0, 0, 0, -1])


def test_tangent_follows_previous_orientation():
    J = np.array([[2.0, 1.0]])
    prev = np.array([-1.0, 2.0]) / np.sqrt(5.0)
    tau, _ = tangent(J, prev)
    assert float(tau @ prev) > 0


def test_tangent_rejects_rank_deficiency():
    assert tangent(np.zeros((2, 3)), prev=minus_e_t(3)) is None


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_tangent_orientation_is_the_sign_of_det_j_tau(d):
    # the sign is read off dgesv's LU factors and pivots; numpy's det of
    # [J; tau] is the reference
    rng = np.random.default_rng(d)
    for _ in range(50):
        J = rng.standard_normal((d, d + 1))
        tau, sign = tangent(J, rng.standard_normal(d + 1))
        assert sign == np.sign(np.linalg.det(np.vstack([J, tau])))


# -- bordered solve -----------------------------------------------------------

def bordered(A):
    """_bordered_solve on the square A split into [J; row], rhs all ones."""
    return tracer._bordered_solve(A[:-1], A[-1], np.ones(A.shape[0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (3, 3)])
def test_bordered_solve_refuses_nonfinite_entries(bad, where):
    A = np.eye(4) + 0.1
    A[where] = bad
    assert bordered(A) is None


def test_bordered_solve_refuses_exactly_singular_matrix():
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
    assert dgetrf(A)[2] > 0  # an exactly zero pivot, not the estimate
    assert bordered(A) is None


@pytest.mark.parametrize("size", [2, 4, 10])
def test_bordered_solve_condition_threshold(size):
    # cond_1 = 1e13 is past _COND_LIMIT = 1e12, cond_1 = 1e11 is inside it
    small = np.ones(size)
    small[-1] = 1e-13
    assert bordered(np.diag(small)) is None
    small[-1] = 1e-11
    z = bordered(np.diag(small))
    assert z is not None and np.allclose(z, 1.0 / small, rtol=1e-15)


@pytest.mark.parametrize("size", range(2, 11))
def test_bordered_solve_matches_numpy(size):
    rng = np.random.default_rng(size)
    for _ in range(20):
        A = rng.normal(size=(size, size)) + size * np.eye(size)
        rhs = rng.normal(size=size)
        z = tracer._bordered_solve(A[:-1], A[-1], rhs)
        ref = np.linalg.solve(A, rhs)
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


def textbook_bordered_solve(J, row, rhs):
    """The bordered solve as first written: [J; row] stacked into a fresh
    array, ||A||_1 from numpy, dgetrf and dgetrs on their own copies."""
    A = np.vstack([J, row])
    norm1 = np.abs(A).sum(axis=0).max()
    lu, piv, info = dgetrf(A)
    if info != 0:
        return None
    rcond = dgecon(lu, norm1)[0]
    if not rcond * tracer._COND_LIMIT >= 1.0:
        return None
    return dgetrs(lu, piv, rhs)[0]


def bordered_cases():
    rng = np.random.default_rng(11)
    for size in range(2, 11):
        for _ in range(10):
            yield rng.normal(size=(size, size)), rng.normal(size=size)
        # the condition limit itself: cond_1 = 1e12 up to rounding
        for last in (1e-12, 1e-12 * (1 + 2 ** -50), 1e-12 * (1 - 2 ** -50)):
            small = np.ones(size)
            small[-1] = last
            yield np.diag(small), np.ones(size)
        for bad in (np.nan, np.inf, -np.inf):
            A = rng.normal(size=(size, size))
            A[rng.integers(size), rng.integers(size)] = bad
            yield A, np.ones(size)
        yield np.zeros((size, size)), np.ones(size)


def test_bordered_solve_equals_the_textbook_solve_bit_for_bit():
    for A, rhs in bordered_cases():
        # dlange sums each column in order, as numpy's axis-0 sum does
        norm_ref = np.abs(A).sum(axis=0).max()
        norm = dlange("1", np.asfortranarray(A))
        assert norm == norm_ref or (np.isnan(norm) and np.isnan(norm_ref))
        z = tracer._bordered_solve(A[:-1], A[-1], rhs.copy())
        ref = textbook_bordered_solve(A[:-1], A[-1], rhs.copy())
        assert (z is None) == (ref is None), A
        if z is not None:
            assert z.tobytes() == ref.tobytes(), A


# -- corrector on a closed-form path ----------------------------------------

def linear_hm(root=2.0, half_width=9.0):
    """h(x, t) = (1-t) theta(t) (x - root) + t x with a single constant
    sample, on the box [-half_width, half_width].

    Root for fixed t: x(t) = root (1-t) theta / ((1-t) theta + t).
    """
    def kernel(x, xis, w=None):
        F = np.repeat(x[None, :] - root, xis.shape[0], axis=0)
        return F if w is None else (F, w.sum() * np.ones((1, 1)))

    sys_ = StochasticSystem(
        n=1, jacobian=kernel,
        box_lo=np.array([-half_width]), box_hi=np.array([half_width]),
        x0=np.array([0.0]))
    bm = BlendedMap(system=sys_, samples=SampleSet(np.zeros((1, 1))),
                    schedule=make_schedule("uniform", 1, 1))
    return HomotopyMap(blended=bm)


def linear_root(t):
    th = np.sin((1.0 - t) * np.pi / 2.0) ** 2
    w = (1.0 - t) * th
    return 2.0 * w / (w + t)


def linear_h(x, t):
    """linear_hm's map in closed form, root 2."""
    th = np.sin((1.0 - t) * np.pi / 2.0) ** 2
    return (1.0 - t) * th * (x - 2.0) + t * x


def test_corrector_lands_on_known_root():
    hm = linear_hm()
    t = 0.4
    tau = np.array([0.0, 1.0])  # fixes t, so the corrector moves x only
    out = correct(hm, np.array([linear_root(t) + 0.05]), t, tau,
                  TraceConfig(), 1e-13)
    assert out is not None
    u, t_out, iters, res, _ = out
    assert t_out == t
    assert u[0] == pytest.approx(linear_root(t), abs=1e-10)
    assert res <= 1e-13 and iters >= 1


def test_corrector_rejects_hopeless_start():
    hm = make_hm(N=50, L=2)
    tau = np.zeros(4)
    tau[-1] = 1.0
    out = correct(hm, np.full(3, 40.0), 0.5, tau,
                  TraceConfig(max_corrector_iters=3))
    assert out is None


class ArctanMap:
    """h(x, t) = arctan(x - 1), the same for every t: undamped Newton from
    x = 3 overshoots further on every step."""

    dim = 1

    def evaluate(self, u, t):
        z = u[0] - 1.0
        return np.arctan(np.array([z])), np.array([[1.0 / (1.0 + z * z), 0.0]])


def test_landing_row_halves_steps_where_newton_diverges():
    cfg = TraceConfig()
    out = correct(ArctanMap(), np.array([3.0]), 0.0, np.array([0.0, 1.0]),
                  cfg, 1e-12)
    assert out is not None
    u, t, iters, res, _ = out
    assert u[0] == pytest.approx(1.0, abs=1e-12) and t == 0.0
    assert res <= 1e-12 and iters <= cfg.max_corrector_iters
    # on a path tangent the corrector stays undamped, and the start is rejected
    tau = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert correct(ArctanMap(), np.array([3.0]), 0.5, tau, cfg, 1e-12) is None


def test_trace_linear_homotopy_full_path():
    # the map holds one sample, so the path is corrected to c / sqrt(1); the
    # landing at t = 0, where the map is the full-sample one, to _POLISH_TOL
    hm = linear_hm()
    result = trace(hm, TraceConfig(h_max=0.05))
    assert result.status == "converged"
    for p in result.path[1:-1]:
        assert abs(linear_h(p.u[0], p.t)) <= path_tol(hm, p.t)
    assert result.t_star == 0.0
    assert abs(linear_h(result.x_star[0], 0.0)) <= tracer._POLISH_TOL
    assert result.x_star[0] == pytest.approx(2.0, abs=tracer._POLISH_TOL)


# -- full traces -------------------------------------------------------------

def test_trace_sin_reaches_saa_root():
    result = trace(make_hm())
    assert result.status == "converged"
    assert result.t_star == 0.0
    assert result.saa_residual <= 1e-12
    x_true = P.oracle_solve(P.sin_instance(3), result.x_star)
    assert np.linalg.norm(result.x_star - x_true) <= 0.5


def test_trace_starts_exactly_at_the_known_root():
    result = trace(make_hm(N=200, L=2))
    first = result.path[0]
    assert first.t == 1.0 and first.residual == 0.0
    # the map at t = 1 weighs no sample, so the start costs none
    assert first.cum_sample_evals == 0
    assert np.array_equal(first.u, make_hm(N=200, L=2).start_point())


def test_path_residuals_within_tolerance():
    # every path point is corrected to the accuracy of the sample average
    # at its level, the landing to _POLISH_TOL
    hm = make_hm()
    result = trace(hm)
    assert result.status == "converged"
    assert all(p.residual <= path_tol(hm, p.t) for p in result.path[:-1])
    assert any(p.residual > tracer._CORRECTOR_TOL for p in result.path[:-1])
    assert result.final_residual <= tracer._POLISH_TOL
    ts = [p.t for p in result.path]
    assert ts[0] == 1.0 and min(ts) >= 0.0


def test_counters_are_consistent():
    hm = make_hm(N=400, L=4)
    result = trace(hm)
    c = result.counters
    # path = start + one point per accepted step + the terminal point
    assert c["predictor_steps"] == len(result.path) - 2
    # the terminal diagnostic pass is not counted as solver work
    assert c["sample_evals"] == result.path[-1].cum_sample_evals
    assert c["corrector_iters_total"] >= c["predictor_steps"]
    assert c["sample_evals"] > 0
    # every pass, the landing's included, is one fused (F, J) evaluation
    assert c["sample_evals"] == c["jac_evals"]


def test_trace_is_bit_reproducible():
    a = trace(make_hm(seed=3))
    b = trace(make_hm(seed=3))
    assert a.status == b.status
    assert np.array_equal(a.u_star, b.u_star)
    assert len(a.path) == len(b.path)
    assert all(pa.t == pb.t and np.array_equal(pa.u, pb.u)
               for pa, pb in zip(a.path, b.path))


def test_trace_market_recovers_equilibrium():
    hm = make_hm("market", 3, N=2000, L=50)
    result = trace(hm)
    assert result.status == "converged"
    assert result.t_star == pytest.approx(1e-8)
    assert np.linalg.norm(result.x_star - P.MARKET_SOLUTION, np.inf) <= 0.01


def test_trace_svi_terminal_satisfies_kkt():
    hm = make_hm("svi", 1, N=500, L=10)
    result = trace(hm)
    assert result.status == "converged"
    x = result.x_star
    assert np.all(hm.B @ x <= hm.b + 1e-8)
    assert result.final_residual <= 1e-10


def test_nonfinite_landing_trial_halves_the_step():
    # a 110-long first step puts the landing Newton's first trial at negative
    # prices, where the market residual is NaN: the line search backs off
    hm = make_hm("market", 3, N=500, L=5)
    result = trace(hm, TraceConfig(h0=110, h_max=110))
    assert result.status == "converged"
    assert result.counters["rejected_steps"] > 0
    assert np.linalg.norm(result.x_star - P.MARKET_SOLUTION, np.inf) <= 0.01


class FlatMap(HomotopyMap):
    """A map whose (u, t)-Jacobian is zero everywhere: no tangent exists."""

    def evaluate(self, u, t):
        r, J = super().evaluate(u, t)
        return r, np.zeros_like(J)


def test_singular_jacobian_stalls_the_trace():
    inner = make_hm(N=200, L=2)
    result = trace(FlatMap(blended=inner.blended))
    assert result.status == "stalled"
    assert len(result.path) == 1 and result.t_star == 1.0


def test_step_size_stall_counts_every_rejection(monkeypatch):
    # every corrector call fails, so h halves from h0 = 1e-2 until it falls
    # below _H_MIN: the rejection that ends the trace is counted too
    calls = []

    def failing_correct(*args, **kwargs):
        calls.append(1)
        return None

    monkeypatch.setattr(tracer, "correct", failing_correct)
    result = trace(make_hm(N=200, L=2))
    assert result.status == "stalled"
    assert len(calls) == 27  # 1e-2 / 2^27 < 1e-10 <= 1e-2 / 2^26
    assert result.counters["rejected_steps"] == len(calls)
    assert result.counters["predictor_steps"] == 0


def test_tangent_is_computed_once_per_successful_corrector(monkeypatch):
    # one tangent at the start and one at each corrected point, which the
    # step rules then accept or reject; a failed corrector retries from
    # the same point with the same tangent, and the landing needs none
    tangents, hits = [], []

    def counting_tangent(*args):
        tangents.append(1)
        return tangent(*args)

    def counting_correct(*args):
        out = correct(*args)
        hits.append(out is not None)
        return out

    monkeypatch.setattr(tracer, "tangent", counting_tangent)
    monkeypatch.setattr(tracer, "correct", counting_correct)
    result = trace(make_hm(N=100, L=4, seed=231))
    assert result.status == "converged"
    assert result.counters["rejected_steps"] > 0
    # the start's tangent stands for the landing's successful corrector
    assert len(tangents) == sum(hits)
    # at this seed the rejected step is the angle guard's, and one held
    # step is taken again on the tangent hyperplane: both candidates'
    # tangents were computed and thrown away
    assert len(tangents) == result.counters["predictor_steps"] + 3


def test_steep_step_holds_t_at_the_predicted_level(monkeypatch):
    # the linear path falls steeply in t: each step's corrector is bordered
    # with e_t, so it lands on exactly t_pred, at that level's root to the
    # path tolerance
    calls = []

    def recording_correct(hm, u_pred, t_pred, row, cfg, tol=None):
        out = correct(hm, u_pred, t_pred, row, cfg, tol)
        calls.append((t_pred, row, out))
        return out

    monkeypatch.setattr(tracer, "correct", recording_correct)
    hm = linear_hm()
    result = trace(hm, TraceConfig(h_max=0.05))
    assert result.status == "converged"
    steps = calls[:-1]  # the last call is the landing
    assert len(steps) == result.counters["predictor_steps"] > 0
    for t_pred, row, (u, t, *_) in steps:
        assert np.array_equal(row, [0.0, 1.0])
        assert t == t_pred
        assert abs(linear_h(u[0], t)) <= path_tol(hm, t)
    assert [p.t for p in result.path[1:-1]] == [t for t, _, _ in steps]


@pytest.mark.parametrize("n, N, L, seed", [(3, 100, 4, 973), (1, 20, 8, 88)])
def test_reversed_held_step_is_taken_again_on_the_hyperplane(monkeypatch,
                                                             n, N, L, seed):
    # at these sample seeds a held step lands past a turning point of t,
    # where the tangent's border would send the path back to t = 1; the
    # step is retaken from the same prediction with the tangent as border,
    # and the path goes on to the SAA root
    calls = []

    def recording_correct(hm, u_pred, t_pred, row, cfg, tol=None):
        calls.append((u_pred, t_pred, row[-1] == 1.0 and not np.any(row[:-1])))
        return correct(hm, u_pred, t_pred, row, cfg, tol)

    monkeypatch.setattr(tracer, "correct", recording_correct)
    result = trace(make_hm(n=n, N=N, L=L, seed=seed))
    assert result.status == "converged"
    assert result.saa_residual <= 1e-12
    retaken = [a for a, b in zip(calls, calls[1:])
               if a[2] and not b[2] and a[1] == b[1]
               and np.array_equal(a[0], b[0])]
    assert retaken and all(t_pred < 1.0 for _, t_pred, _ in retaken)


def test_angle_guard_rejects_a_sharp_turn(monkeypatch):
    # sample seed 5546 of the sin-small benchmark: a corrected point whose
    # tangent turns by more than 60 degrees is rejected and the step halved,
    # and the path goes on to the SAA root
    turns = []

    def recording_tangent(J, prev):
        out = tangent(J, prev)
        turns.append(float(out[0] @ prev))
        return out

    monkeypatch.setattr(tracer, "tangent", recording_tangent)
    result = trace(make_hm(N=100, L=4, seed=5546))
    assert result.status == "converged"
    assert result.saa_residual <= 1e-12
    assert result.counters["rejected_steps"] >= 1
    assert min(turns) < tracer._MIN_COS


@pytest.mark.parametrize("problem, n, N, L, seed", [
    ("sin", 3, 1500, 4, 0),
    ("sin", 1, 20, 8, 88),  # a held step is taken again on the hyperplane
    ("svi", 1, 500, 10, 0),  # constrained: the landing is at t_end > 0
])
def test_corrector_tolerance_follows_the_sample_size(monkeypatch, problem, n,
                                                     N, L, seed):
    # a path step is corrected to max(_CORRECTOR_TOL, c / sqrt(q_l)) at its
    # predicted level, a retaken step too; the landing keeps _POLISH_TOL
    # without constraints and _CORRECTOR_TOL with them
    calls = []

    def recording_correct(hm, u_pred, t_pred, row, cfg, tol=None):
        calls.append((t_pred, tol))
        return correct(hm, u_pred, t_pred, row, cfg, tol)

    monkeypatch.setattr(tracer, "correct", recording_correct)
    hm = make_hm(problem, n, N=N, L=L, seed=seed)
    result = trace(hm)
    assert result.status == "converged"
    landing = [tol for t_pred, tol in calls if t_pred == hm.t_end]
    steps = [(t_pred, tol) for t_pred, tol in calls if t_pred != hm.t_end]
    assert landing and len(steps) >= result.counters["predictor_steps"] > 0
    assert all(t_pred > hm.t_end for t_pred, _ in steps)
    assert all(tol == path_tol(hm, t_pred) for t_pred, tol in steps)
    land_tol = tracer._POLISH_TOL if hm.M == 0 else tracer._CORRECTOR_TOL
    assert landing == [land_tol] * len(landing)
    assert result.final_residual <= land_tol


def test_sample_evaluations_are_split_by_phase(monkeypatch):
    # the landing's share is what its correct() calls spend, failed ones
    # included; the path's is the rest, the start's pass at t = 1 among it
    spent = []

    def measuring_correct(hm, u_pred, t_pred, row, cfg, tol=None):
        bm = hm.blended
        before = bm.eval_counter, bm.jac_counter
        out = correct(hm, u_pred, t_pred, row, cfg, tol)
        if t_pred == hm.t_end:
            spent.append((bm.eval_counter - before[0],
                          bm.jac_counter - before[1]))
        return out

    monkeypatch.setattr(tracer, "correct", measuring_correct)
    # a 110-long first step makes the first landing trials fail
    hm = make_hm("market", 3, N=500, L=5)
    result = trace(hm, TraceConfig(h0=110, h_max=110))
    assert result.status == "converged"
    c = result.counters
    assert len(spent) >= 2  # a failed landing trial, then the landing
    for key, column in (("sample_evals", 0), ("jac_evals", 1)):
        assert c[key + "_landing"] == sum(s[column] for s in spent) > 0
        assert c[key + "_path"] + c[key + "_landing"] == c[key]
        assert c[key + "_path"] > 0
    # the landing runs at the full sample size
    assert c["sample_evals_landing"] % hm.blended.schedule.N == 0


def test_failed_landing_is_followed_by_a_path_step(monkeypatch):
    # the landing starts from the tangent's extrapolation to t_end, which
    # does not depend on h; after a failed trial the next correct() call is
    # a path step halfway to t_end, so no landing repeats an earlier one
    calls, failures = [], []

    def failing_first_landings(hm, u_pred, t_pred, row, cfg, tol=None):
        calls.append((u_pred.copy(), t_pred))
        if t_pred == hm.t_end and len(failures) < 2:
            failures.append(len(calls) - 1)
            return None
        return correct(hm, u_pred, t_pred, row, cfg, tol)

    monkeypatch.setattr(tracer, "correct", failing_first_landings)
    hm = make_hm()
    result = trace(hm)
    assert result.status == "converged"
    assert result.saa_residual <= 1e-12
    assert len(failures) == 2
    for i in failures:
        assert calls[i + 1][1] > hm.t_end
    starts = [u for u, t_pred in calls if t_pred == hm.t_end]
    assert len(starts) == 3
    assert all(not np.array_equal(a, b)
               for i, a in enumerate(starts) for b in starts[i + 1:])


def test_step_cap_of_one_costs_fewer_samples_than_the_old_cap():
    # sin n = 3, N = 100, L = 4, sample seeds 0-99 (the sin-small benchmark's
    # first block): a step may span the whole t-interval, and the old cap
    # h_max = 0.2 bound on most steps
    def total(cfg):
        return sum(trace(make_hm(N=100, L=4, seed=seed), cfg)
                   .counters["sample_evals"] for seed in range(100))

    assert TraceConfig().h_max == 1.0
    assert total(TraceConfig()) < total(TraceConfig(h_max=0.2))


class LoopMap(HomotopyMap):
    """h(x, t) = (x - 0.5)^2 + (t - 0.8)^2 - 0.29: a circle through the start
    (0, 1) that stays above t = 0.26 and meets t = 1 again at x = 1."""

    def evaluate(self, u, t):
        x = u[0] - 0.5
        s = t - 0.8
        return np.array([x * x + s * s - 0.29]), np.array([[2.0 * x, 2.0 * s]])


def test_path_back_at_the_start_level_ends_the_trace():
    # the path turns at the bottom of the loop and climbs back to t = 1,
    # from where it would retrace itself at no sample cost
    hm = LoopMap(blended=linear_hm().blended)
    result = trace(hm)
    assert result.status == "returned-to-start"
    ts = [p.t for p in result.path]
    assert ts[-1] == 1.0 and max(ts[1:-1]) < 1.0
    assert min(ts) == pytest.approx(0.8 - np.sqrt(0.29), abs=0.05)
    # no landing: the last point is a path point, on the circle at t = 1
    # (x = 1, where |dh/dx| = 1) to the path tolerance
    for p in result.path:
        h = (p.u[0] - 0.5) ** 2 + (p.t - 0.8) ** 2 - 0.29
        assert abs(h) <= path_tol(hm, p.t)
    assert result.x_star[0] == pytest.approx(1.0, abs=2 * path_tol(hm, 1.0))


def test_path_leaving_the_guard_box_is_diverged():
    # f = x - 100 has its root far outside the box [-1, 1]; the path leaves
    # the guard box [-2, 2] on the way there
    result = trace(linear_hm(root=100.0, half_width=1.0))
    assert result.status == "diverged-out-of-box"
    assert result.counters["predictor_steps"] == 12
    assert result.x_star[0] > 2.0 and result.t_star > 0.0


def test_max_steps_is_reported():
    result = trace(make_hm(N=200, L=4), TraceConfig(max_steps=3))
    assert result.status == "max_steps"


def test_path_csv_schema(tmp_path):
    hm = make_hm(N=200, L=2)
    sched = hm.blended.schedule
    result = trace(hm)
    out = tmp_path / "path.csv"
    path_to_csv(result, sched, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("step,t,norm_u,residual,step_len,corrector_iters,"
                        "cum_sample_evals,segment,q,cum_jac_evals")
    assert len(lines) == 1 + len(result.path)
    rows = [line.split(",") for line in lines[1:]]
    # every point names its segment and the samples one evaluation there costs
    for row in rows:
        ell = sched.blend(float(row[1]))[0]
        assert (int(row[7]), int(row[8])) == (ell, sched.q[ell])
    assert {int(row[7]) for row in rows} == {1, 2}
    last = rows[-1]
    assert float(last[1]) == result.t_star
    # the terminal row carries the landing's Newton iterations, at full N
    assert int(last[5]) == result.path[-1].corrector_iters > 0
    assert (int(last[7]), int(last[8])) == (2, 200)
    # the cumulative counts end at the solve's counters
    assert int(last[6]) == result.counters["sample_evals"]
    assert int(last[9]) == result.counters["jac_evals"]


def test_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(h0=1.0, h_max=0.5)
