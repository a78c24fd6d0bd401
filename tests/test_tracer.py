import numpy as np
import pytest

from grsaa.homotopy import HomotopyMap
from grsaa.sampling import Partition, SampleSet, draw_samples, partition_uniform
from grsaa.saa import BlendedMap, StochasticSystem
from grsaa.schedule import make_schedule
from grsaa.tracer import (SingularJacobianError, TraceConfig, correct,
                          path_to_csv, tangent, trace)
from grsaa import problems as P


def make_hm(problem="sin", n=3, N=1500, L=4, seed=0, schedule="uniform"):
    inst = P.get_instance(problem, n)
    samples = draw_samples(inst.distribution, N, seed=seed)
    return P.build_homotopy(inst, samples, partition_uniform(N, L),
                            make_schedule(schedule, L))


# -- tangent -----------------------------------------------------------------

def test_tangent_hand_example():
    # kernel of [2 1] is span{(1, -2)}; normalized and oriented downward in
    # the last component
    tau = tangent(np.array([[2.0, 1.0]]), prev=None)
    assert np.allclose(tau, np.array([1.0, -2.0]) / np.sqrt(5.0))


def test_tangent_first_step_points_down_in_t():
    J = np.hstack([np.eye(3), np.zeros((3, 1))])
    tau = tangent(J, prev=None)
    assert np.allclose(tau, [0, 0, 0, -1])


def test_tangent_follows_previous_orientation():
    J = np.array([[2.0, 1.0]])
    prev = np.array([-1.0, 2.0]) / np.sqrt(5.0)
    tau = tangent(J, prev)
    assert float(tau @ prev) > 0


def test_tangent_rejects_rank_deficiency():
    with pytest.raises(SingularJacobianError):
        tangent(np.zeros((2, 3)), prev=None)


# -- corrector on a closed-form path ----------------------------------------

def linear_hm():
    """h(x, t) = (1-t) theta(t) (x - 2) + t x with a single constant sample.

    Root for fixed t: x(t) = 2 (1-t) theta / ((1-t) theta + t).
    """
    sys_ = StochasticSystem(
        n=1, m=1,
        residual=lambda x, xis: np.repeat(x[None, :] - 2.0, xis.shape[0], axis=0),
        jacobian=lambda x, xis: np.ones((xis.shape[0], 1, 1)),
        box_lo=np.array([-9.0]), box_hi=np.array([9.0]), x0=np.array([0.0]))
    bm = BlendedMap(system=sys_, samples=SampleSet(np.zeros((1, 1)), seed=None),
                    partition=Partition((1,)), schedule=make_schedule("uniform", 1))
    return HomotopyMap(kind="plain", blended=bm)


def linear_root(t):
    th = np.sin((1.0 - t) * np.pi / 2.0) ** 2
    w = (1.0 - t) * th
    return 2.0 * w / (w + t)


def test_corrector_lands_on_known_root():
    hm = linear_hm()
    t = 0.4
    tau = np.array([0.0, 1.0])  # fixes t, so the corrector moves x only
    out = correct(hm, np.array([linear_root(t) + 0.05]), t, tau,
                  TraceConfig(corrector_tol=1e-13))
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
    assert np.array_equal(first.u, make_hm(N=200, L=2).start_point())


def test_path_residuals_within_tolerance():
    cfg = TraceConfig(corrector_tol=1e-10)
    result = trace(make_hm(), cfg)
    assert all(p.residual <= cfg.corrector_tol for p in result.path)
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


def test_max_steps_is_reported():
    result = trace(make_hm(N=200, L=4), TraceConfig(max_steps=3))
    assert result.status == "max_steps"


def test_path_csv_schema(tmp_path):
    result = trace(make_hm(N=200, L=2))
    out = tmp_path / "path.csv"
    path_to_csv(result, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ("step,t,norm_u,residual,step_len,corrector_iters,"
                        "cum_sample_evals")
    assert len(lines) == 1 + len(result.path)
    last = lines[-1].split(",")
    assert float(last[1]) == result.t_star


def test_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(h0=1.0, h_max=0.5)
    with pytest.raises(ValueError):
        TraceConfig(grow=0.9)
