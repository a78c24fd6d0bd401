import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf

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


# -- tangent -----------------------------------------------------------------

def minus_e_t(size):
    """The orienting row of the first step: t must initially decrease."""
    row = np.zeros(size)
    row[-1] = -1.0
    return row


def test_tangent_hand_example():
    # kernel of [2 1] is span{(1, -2)}; normalized and oriented downward in
    # the last component
    tau = tangent(np.array([[2.0, 1.0]]), prev=minus_e_t(2))
    assert np.allclose(tau, np.array([1.0, -2.0]) / np.sqrt(5.0))


def test_tangent_first_step_points_down_in_t():
    J = np.hstack([np.eye(3), np.zeros((3, 1))])
    tau = tangent(J, prev=minus_e_t(4))
    assert np.array_equal(tau, [0, 0, 0, -1])


def test_tangent_follows_previous_orientation():
    J = np.array([[2.0, 1.0]])
    prev = np.array([-1.0, 2.0]) / np.sqrt(5.0)
    tau = tangent(J, prev)
    assert float(tau @ prev) > 0


def test_tangent_rejects_rank_deficiency():
    assert tangent(np.zeros((2, 3)), prev=minus_e_t(3)) is None


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


# -- corrector on a closed-form path ----------------------------------------

def linear_hm(root=2.0, half_width=9.0):
    """h(x, t) = (1-t) theta(t) (x - root) + t x with a single constant
    sample, on the box [-half_width, half_width].

    Root for fixed t: x(t) = root (1-t) theta / ((1-t) theta + t).
    """
    sys_ = StochasticSystem(
        n=1,
        residual=lambda x, xis: np.repeat(x[None, :] - root, xis.shape[0], axis=0),
        jacobian=lambda x, xis, w: (np.repeat(x[None, :] - root, xis.shape[0], axis=0),
                                    w.sum() * np.ones((1, 1))),
        box_lo=np.array([-half_width]), box_hi=np.array([half_width]),
        x0=np.array([0.0]))
    bm = BlendedMap(system=sys_, samples=SampleSet(np.zeros((1, 1))),
                    schedule=make_schedule("uniform", 1, 1))
    return HomotopyMap(blended=bm)


def linear_root(t):
    th = np.sin((1.0 - t) * np.pi / 2.0) ** 2
    w = (1.0 - t) * th
    return 2.0 * w / (w + t)


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
    result = trace(linear_hm(), TraceConfig(h_max=0.05))
    assert result.status == "converged"
    assert result.x_star[0] == pytest.approx(2.0, abs=1e-10)
    for p in result.path[1:]:
        assert abs(p.u[0] - linear_root(p.t)) <= 1e-8


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
    result = trace(make_hm())
    assert all(p.residual <= tracer._CORRECTOR_TOL for p in result.path)
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


def test_tangent_is_computed_once_per_accepted_point(monkeypatch):
    # a rejected step retries from the same point with the same tangent:
    # one tangent at the start and one after each accepted step
    calls = []

    def counting_tangent(*args):
        calls.append(1)
        return tangent(*args)

    monkeypatch.setattr(tracer, "tangent", counting_tangent)
    result = trace(make_hm(N=100, L=4, seed=0))
    assert result.status == "converged"
    assert result.counters["rejected_steps"] > 0
    assert len(calls) == result.counters["predictor_steps"] + 1


def test_path_back_at_the_start_level_ends_the_trace():
    # sample seed 9483 of the sin-small benchmark: step 14 is clamped back
    # to t = 1, from where the path would retrace itself at no sample cost
    result = trace(make_hm(N=100, L=4, seed=9483))
    assert result.status == "returned-to-start"
    assert [p.t for p in result.path].index(1.0, 1) == len(result.path) - 1
    assert result.counters["predictor_steps"] == 14
    assert result.counters["sample_evals"] == 2475


def test_path_leaving_the_guard_box_is_diverged():
    # f = x - 100 has its root far outside the box [-1, 1]; the path leaves
    # the guard box [-2, 2] on the way there
    result = trace(linear_hm(root=100.0, half_width=1.0))
    assert result.status == "diverged-out-of-box"
    assert result.counters["predictor_steps"] == 16
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
