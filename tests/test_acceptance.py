"""Acceptance gate: seven end-to-end criteria, one test (and one verdict
line under -v) per criterion.  Tolerances here are contractual; do not
loosen them to make a failing run pass."""

import time

import numpy as np
import pytest

from grsaa.homotopy import transform_derivs
from grsaa.sampling import draw_samples
from grsaa.saa import BlendedMap
from grsaa.schedule import make_schedule
from grsaa.tracer import trace
from grsaa import problems as P


def run_trace(problem, n, N, L, seed, schedule="uniform"):
    inst = P.get_instance(problem, n)
    samples = draw_samples(N, seed=seed)
    hm = P.build_homotopy(inst, samples, make_schedule(schedule, N, L))
    return hm, trace(hm)


def value(hm, u, t):
    return hm.evaluate(u, t)[0]


def test_criterion_1_market_equilibrium_reproduction():
    t0 = time.perf_counter()
    errs = []
    for seed in range(5):
        hm, result = run_trace("market", 3, 10 ** 4, 100, seed)
        assert result.status == "converged"
        p = result.x_star
        err = float(np.linalg.norm(p - P.MARKET_SOLUTION, np.inf))
        errs.append(err)
        assert err <= 0.015  # per-seed band
        feas = float(np.max(np.maximum(P.MARKET_B @ p - P.MARKET_b, 0.0)))
        assert feas <= 1e-8
    assert float(np.median(errs)) <= 0.01
    assert time.perf_counter() - t0 < 60.0


def test_criterion_2_sin_system_oracle_agreement():
    for n in (3, 5, 8):
        t0 = time.perf_counter()
        hm, result = run_trace("sin", n, 10 ** 4, 20, seed=1)
        assert result.status == "converged"
        assert result.saa_residual <= 1e-10
        x_ref = P.oracle_solve(P.sin_instance(n), result.x_star)
        assert float(np.linalg.norm(result.x_star - x_ref)) <= 0.5
        assert time.perf_counter() - t0 <= 30.0


def test_criterion_3_monte_carlo_rate_shape():
    med = {}
    for N in (10 ** 2, 10 ** 4):
        errs = []
        for seed in range(20):
            hm, result = run_trace("sin", 3, N, min(4, N), seed)
            assert result.status == "converged"
            x_ref = P.oracle_solve(P.sin_instance(3), result.x_star)
            errs.append(float(np.linalg.norm(result.x_star - x_ref)))
        med[N] = float(np.median(errs))
    ratio = med[10 ** 2] / med[10 ** 4]
    assert 5.0 <= ratio <= 20.0


def test_criterion_4_fewer_sample_evals_than_standard_homotopy():
    N = 10 ** 4
    L = int(np.ceil(0.55 * N))
    for n in (1, 2):
        wins = 0
        for seed in range(10):
            _, grsaa = run_trace("svi", n, N, L, seed)
            _, standard = run_trace("svi", n, N, 1, seed)
            assert grsaa.status == "converged"
            assert standard.status == "converged"
            if grsaa.counters["sample_evals"] < standard.counters["sample_evals"]:
                wins += 1
        assert wins >= 9


def test_criterion_5_sweep_minimum_is_interior():
    N = 10 ** 4
    L_values = [1, 1000, 2500, 5500, 8000, N]
    means = []
    for L in L_values:
        evals = []
        for seed in range(3):
            _, result = run_trace("svi", 1, N, L, seed)
            assert result.status == "converged"
            evals.append(result.counters["sample_evals"])
        means.append(float(np.mean(evals)))
    best = L_values[int(np.argmin(means))]
    assert best not in (1, N)


def test_criterion_6_invariant_suite():
    rng = np.random.default_rng(0)

    # C1 joins: |d/dt of the blend| <= 1e-6 at +-1e-8 offsets around every
    # node, evaluated at the start point where the group averages are the
    # path-relevant ones.  The bound scales like eps * ||f^l - f^(l-1)|| /
    # width^2, so the schedule must leave the segments their full width.
    for problem, n, L in (("sin", 3, 2), ("svi", 1, 2), ("market", 3, 2),
                          ("sin", 3, 4)):
        inst = P.get_instance(problem, n)
        samples = draw_samples(10 ** 4, seed=2)
        bm = BlendedMap(system=inst.system, samples=samples,
                        schedule=make_schedule("uniform", 10 ** 4, L))
        x = inst.system.x0
        for ell in range(1, L):
            node = bm.schedule.nodes[ell]
            for t in (node - 1e-8, node + 1e-8):
                assert np.linalg.norm(bm.evaluate(x, t)[1], np.inf) <= 1e-6
            assert np.array_equal(bm.evaluate(x, node)[1], np.zeros(n))

    # homotopy Jacobians against finite differences at relative 1e-5
    for problem, n in (("sin", 3), ("svi", 2)):
        inst = P.get_instance(problem, n)
        samples = draw_samples(200, seed=3)
        hm = P.build_homotopy(inst, samples, make_schedule("uniform", 200, 4))
        nodes = np.asarray(hm.blended.schedule.nodes)
        checked = 0
        while checked < 25:
            u = rng.uniform(-1, 1, hm.dim)
            t = rng.uniform(0.02, 0.98)
            if np.min(np.abs(nodes - t)) < 1e-3:
                continue
            J = hm.evaluate(u, t)[1]
            h = 1e-6
            for j in range(hm.dim):
                up, um = u.copy(), u.copy()
                up[j] += h
                um[j] -= h
                fd = (value(hm, up, t) - value(hm, um, t)) / (2 * h)
                assert np.allclose(J[:, j], fd, rtol=1e-5, atol=1e-6)
            fd_t = (value(hm, u, t + h) - value(hm, u, t - h)) / (2 * h)
            assert np.allclose(J[:, hm.dim], fd_t, rtol=1e-5, atol=1e-5)
            checked += 1

    # transform product identity at relative 1e-12
    y = rng.uniform(-20, 20, 200)
    for t in (1e-8, 1e-3, 0.3, 1.0):
        for kappa0 in (2, 3):
            tr = transform_derivs(y, t, kappa0)
            neg, pos = tr["neg"], tr["pos"]
            assert np.allclose(neg * pos, t ** kappa0, rtol=1e-12, atol=0)

    # endpoint exactness and alpha-neutrality of the plain homotopy
    inst = P.sin_instance(3)
    samples = draw_samples(500, seed=4)
    for alpha in (None, np.array([1.0, -2.0, 0.5])):
        hm = P.build_homotopy(inst, samples, make_schedule("uniform", 500, 5),
                              alpha=alpha)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            assert np.array_equal(value(hm, x, 1.0), x - hm.x0)
            full = inst.system.residual(x, samples.samples).mean(axis=0)
            assert np.allclose(value(hm, x, 0.0), full, rtol=0, atol=1e-15)

    # trace bit-reproducibility under fixed seeds
    for problem, n in (("sin", 3), ("svi", 1)):
        _, a = run_trace(problem, n, 500, 5, seed=7)
        _, b = run_trace(problem, n, 500, 5, seed=7)
        assert np.array_equal(a.u_star, b.u_star)
        assert [p.t for p in a.path] == [p.t for p in b.path]


def test_criterion_7_sample_evals_scale_near_linearly_in_n():
    evals = {}
    for N in (10 ** 4, 10 ** 5):
        L = int(np.ceil(0.55 * N))
        _, result = run_trace("svi", 1, N, L, seed=1)
        assert result.status == "converged"
        evals[N] = result.counters["sample_evals"]
    factor = evals[10 ** 5] / evals[10 ** 4]
    assert 5.0 <= factor <= 20.0
