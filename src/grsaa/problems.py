"""Benchmark problems: a CES market equilibrium, the sin system, and a
box-constrained stochastic variational inequality.

Each problem supplies a batched residual f(x, xi), a fused kernel that
returns the same rows with the w-weighted sum of their analytic x-Jacobians
from one pass (no per-sample Jacobian is stored), a domain box with an
interior reference point, and (where one exists) an independent ground-truth
oracle built on the analytic expectation of the residual.  Kernels build
(n, q) arrays element by element and return F as their column-major (q, n)
transpose, so a row's bits do not depend on how many rows a call has.
Market shares one softmax column per sample across its goods; sin and svi
expand sin(i sum(x) + xi) by angle addition, 2q + 2n trig calls a pass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import root

from .homotopy import HomotopyMap
from .newton import NewtonFailure
from .saa import BlendedMap, StochasticSystem
from .sampling import SampleSet
from .schedule import NodeSchedule

__all__ = [
    "ProblemInstance",
    "market_residual", "market_jacobian", "market_instance", "market_verify",
    "sin_residual", "sin_jacobian", "sin_instance",
    "sin_expectation", "sin_expectation_jac",
    "svi_residual", "svi_jacobian", "svi_instance",
    "svi_expectation", "svi_expectation_jac",
    "oracle_solve", "build_homotopy", "get_instance",
]

# substitution parameters within this distance of 1 are clipped: the CES
# exponent 1/(xi - 1) diverges there
_XI_CLIP = 1e-6


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    system: StochasticSystem
    B: np.ndarray | None = None
    b: np.ndarray | None = None


def build_homotopy(inst: ProblemInstance, samples: SampleSet,
                   schedule: NodeSchedule,
                   alpha: np.ndarray | None = None) -> HomotopyMap:
    bm = BlendedMap(system=inst.system, samples=samples, schedule=schedule)
    return HomotopyMap(blended=bm, alpha=alpha, B=inst.B, b=inst.b)


# ---------------------------------------------------------------------------
# market equilibrium (CES economy, three goods, two firms)
# ---------------------------------------------------------------------------

# log of the CES weights a: good i's demand denominator weighs p_j^(1+e) by
# (a_i/a_j)^e
_LOG_A = np.log([1.0, 1.5, 0.5])

MARKET_A = np.array([
    [-1.5, 1.0, 1.0],
    [-1.0, -77.0 / 27.0, 11.0 / 9.0],
])
MARKET_B = np.vstack([MARKET_A, -np.eye(3), np.ones((1, 3))])
MARKET_b = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
MARKET_SOLUTION = np.array([0.40, 0.45, 0.15])


def _market_parts(p: np.ndarray, xis: np.ndarray):
    """Shared pieces of the CES demand, computed in log space.

    p_i^(1/(xi-1)) overflows for xi near 1, so with l = log p good i's
    denominator is a_i^e exp(logsumexp_j v_j), v_j = (1+e) l_j - e log a_j:
    one softmax column s per sample serves all goods, and the share p_i^e /
    denominator_i is s_i / p_i, bounded for all xi in [-1, 1).  Built as
    (3, q) arrays and returned as their (q, 3) transposes.  The clip is a
    RuntimeWarning with a fixed message, so Python's default filter shows
    it once rather than on every kernel call; softmax may be overwritten."""
    p = np.asarray(p, dtype=float)
    xi = np.asarray(xis, dtype=float).reshape(-1)
    if np.any(xi > 1.0 - _XI_CLIP):
        warnings.warn("clipped CES substitution sample(s) to xi = 1 - 1e-6",
                      RuntimeWarning)
        xi = np.minimum(xi, 1.0 - _XI_CLIP)
    with np.errstate(invalid="ignore", divide="ignore"):
        l = np.log(p)  # nan for p <= 0 -> rejected upstream as non-finite
    e = 1.0 / (xi - 1.0)  # (q,)
    v = np.multiply.outer(l, 1.0 + e)
    v -= np.multiply.outer(_LOG_A, e)  # (3, q)
    v -= v.max(axis=0)
    softmax = np.exp(v, out=v)
    softmax /= softmax.sum(axis=0)
    return p, e, (softmax / p[:, None]).T, softmax.T


def market_residual(p: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """Excess demand f(p, xi) = (p.w) * (p_1/g_1, p_2/g_2, p_3/g_3), w = 1."""
    p, _, share, _ = _market_parts(p, xis)
    return p.sum() * share


def market_jacobian(p: np.ndarray, xis: np.ndarray, w: np.ndarray):
    """(F, sum_k w_k J_k): market_residual's rows and the w-weighted sum of
    their p-Jacobians from one pass."""
    p, e, share, softmax = _market_parts(p, xis)
    S = p.sum()
    # J_k = share_k 1^T + S * dshare_k with dshare_k,ij = share_ki *
    # (e_k d_ij - (1+e_k) softmax_kj) / p_j, so the weighted sum is
    # a 1^T + (S/p_j)(d_ij b_i - C_ij) with a = w^T share, b = (w e)^T share
    # and C = share^T (w (1+e) softmax), one (3, q) x (q, 3) product
    softmax *= (w * (1.0 + e))[:, None]
    J = np.diag((w * e) @ share)
    J -= share.T @ softmax
    J *= S / p
    J += (w @ share)[:, None]
    return S * share, J


def market_instance() -> ProblemInstance:
    system = StochasticSystem(
        n=3, residual=market_residual, jacobian=market_jacobian,
        box_lo=np.full(3, 1e-3), box_hi=np.ones(3),
        # strictly interior in {p > 0, Ap < 0, e.p < 1}; the equal-price point
        # violates the first zero-profit row and is not admissible
        x0=np.array([0.40, 0.30, 0.10]))
    return ProblemInstance(name="market", system=system, B=MARKET_B, b=MARKET_b)


def market_verify(p: np.ndarray, bm: BlendedMap, tol: float = 1e-8) -> dict:
    """Check a candidate price vector against the stationarity conditions at
    the full-sample level: feasibility of B p <= b and existence of
    multipliers z >= 0 on the active rows with f^L(p) = B^T z."""
    p = np.asarray(p, dtype=float)
    slack = MARKET_b - MARKET_B @ p
    feasible = bool(np.all(slack >= -tol))
    active = slack <= tol
    fN = bm.sample_average(bm.L, p)
    if active.any():
        Bact = MARKET_B[active]
        z_act, *_ = np.linalg.lstsq(Bact.T, fN, rcond=None)
        stat_res = float(np.linalg.norm(Bact.T @ z_act - fN, np.inf))
        z_ok = bool(np.all(z_act >= -tol))
    else:
        z_act = np.zeros(0)
        stat_res = float(np.linalg.norm(fN, np.inf))
        z_ok = True
    return {"feasible": feasible, "active_rows": np.flatnonzero(active).tolist(),
            "multipliers": z_act, "multipliers_nonnegative": z_ok,
            "stationarity_residual": stat_res}


# ---------------------------------------------------------------------------
# sin system (and the angle addition the svi kernels share)
# ---------------------------------------------------------------------------

def _eye_plus_rank1(coef: np.ndarray, wsum: float) -> np.ndarray:
    """sum_k w_k (I + c_k 1^T) = (sum w) I + coef 1^T for coef = sum_k w_k c_k."""
    n = coef.size
    J = np.repeat(coef[:, None], n, axis=1)
    J.flat[::n + 1] += wsum
    return J


def _angles(x: np.ndarray, xis: np.ndarray):
    """(x, i, sin a, cos a, T) with a_i = i * sum(x) and T = (cos xi; sin xi),
    (2, q).  By angle addition sin(a_i + xi_k) = sin a_i cos xi_k + cos a_i
    sin xi_k and cos(a_i + xi_k) = cos a_i cos xi_k - sin a_i sin xi_k: 2q +
    2n trig calls instead of 2qn, all but 2n of them on |xi| <= 1."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xis, dtype=float).reshape(-1)
    i = np.arange(1.0, x.size + 1)
    a = i * x.sum()
    return x, i, np.sin(a), np.cos(a), np.array((np.cos(xi), np.sin(xi)))


def _combine(u: np.ndarray, v: np.ndarray, T: np.ndarray) -> np.ndarray:
    """u_i T_0k + v_i T_1k, (n, q), element by element, so a row's bits do
    not depend on q (a matrix product would let BLAS pick its kernel by the
    batch's shape).  Both products share one (2, n, q) buffer: a second
    (n, q) temporary made the sin-dims kernel about 40% slower."""
    B = np.array((u, v))[:, :, None] * T[:, None, :]
    B[0] += B[1]
    return B[0]


def sin_residual(x: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """f_i(x, xi) = x_i - 5 sin(i * sum(x) + xi)."""
    x, _, sa, ca, T = _angles(x, xis)
    F = _combine(-5.0 * sa, -5.0 * ca, T)
    F += x[:, None]
    return F.T


def sin_jacobian(x: np.ndarray, xis: np.ndarray, w: np.ndarray):
    """(F, sum_k w_k J_k): sin_residual's rows and the w-weighted sum of
    their x-Jacobians I + c_k 1^T, c_ki = -5 i cos(a_i + xi_k), whose sum
    needs only T @ w = (w.cos xi, w.sin xi)."""
    x, i, sa, ca, T = _angles(x, xis)
    sa, ca = -5.0 * sa, -5.0 * ca
    F = _combine(sa, ca, T)
    F += x[:, None]
    u = T @ w
    return F.T, _eye_plus_rank1(i * (ca * u[0] - sa * u[1]), w.sum())


def sin_expectation(x: np.ndarray) -> np.ndarray:
    """E_xi f(x, xi) for xi ~ uniform[-1, 1]: x_i - 5 sin(1) sin(i sum(x))."""
    x = np.asarray(x, dtype=float)
    i_arr = np.arange(1, x.size + 1)
    return x - 5.0 * math.sin(1.0) * np.sin(i_arr * x.sum())


def sin_expectation_jac(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    i_arr = np.arange(1, x.size + 1)
    coef = -5.0 * math.sin(1.0) * i_arr * np.cos(i_arr * x.sum())
    return _eye_plus_rank1(coef, 1.0)


def sin_instance(n: int) -> ProblemInstance:
    system = StochasticSystem(
        n=n, residual=sin_residual, jacobian=sin_jacobian,
        box_lo=np.full(n, -10.0), box_hi=np.full(n, 10.0),
        x0=np.zeros(n))
    return ProblemInstance(name="sin", system=system)


# ---------------------------------------------------------------------------
# stochastic variational inequality over the box [-10, 10]^n
# ---------------------------------------------------------------------------

def svi_residual(x: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """f_i(x, xi) = x_i - exp(cos(i * sum(x) + xi))."""
    x, _, sa, ca, T = _angles(x, xis)
    E = np.exp(_combine(ca, -sa, T))
    return np.subtract(x[:, None], E, out=E).T


def svi_jacobian(x: np.ndarray, xis: np.ndarray, w: np.ndarray):
    """(F, sum_k w_k J_k): svi_residual's rows and the w-weighted sum of
    their x-Jacobians I + c_k 1^T, c_ki = i exp(cos(a_i + xi_k)) sin(a_i + xi_k)."""
    x, i, sa, ca, T = _angles(x, xis)
    E = np.exp(_combine(ca, -sa, T))
    coef = _combine(sa, ca, T)
    coef *= E
    return (np.subtract(x[:, None], E, out=E).T,
            _eye_plus_rank1(i * (coef @ w), w.sum()))


def _exp_cos_mean(a: float) -> float:
    """(1/2) integral_{-1}^{1} exp(cos(a + xi)) dxi by adaptive quadrature."""
    val, _ = quad(lambda s: math.exp(math.cos(a + s)), -1.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    return 0.5 * val


def _exp_cos_mean_deriv(a: float) -> float:
    val, _ = quad(lambda s: -math.sin(a + s) * math.exp(math.cos(a + s)),
                  -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return 0.5 * val


def svi_expectation(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    s = x.sum()
    return x - np.array([_exp_cos_mean(i * s) for i in range(1, x.size + 1)])


def svi_expectation_jac(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    s = x.sum()
    coef = [-i * _exp_cos_mean_deriv(i * s) for i in range(1, x.size + 1)]
    return _eye_plus_rank1(np.array(coef), 1.0)


def svi_instance(n: int) -> ProblemInstance:
    """Box-constrained SVI as a smoothed-KKT instance.

    Constraint rows are [I; -I] x <= (10e; 10e), the box itself.  Internally
    the kernel's orientation y = -w is used, so the multipliers of the
    stated system are neg(y) and the slacks are pos(y).
    """
    system = StochasticSystem(
        n=n, residual=svi_residual, jacobian=svi_jacobian,
        box_lo=np.full(n, -10.0), box_hi=np.full(n, 10.0),
        x0=np.zeros(n))
    B = np.vstack([np.eye(n), -np.eye(n)])
    b = np.full(2 * n, 10.0)
    return ProblemInstance(name="svi", system=system, B=B, b=b)


# ---------------------------------------------------------------------------
# ground-truth oracles
# ---------------------------------------------------------------------------

# MINPACK's hybr stops when two iterates agree to this relative accuracy;
# scipy's default, 1.49e-8, can stop above the 1e-12 residual asked for
_ORACLE_XTOL = 1e-13


def oracle_solve(inst: ProblemInstance, start: np.ndarray,
                 tol: float = 1e-12) -> np.ndarray:
    """Root of the analytic-expectation system from `start`, by MINPACK's
    Powell hybrid method (scipy.optimize.root, method "hybr") with the
    analytic expectation Jacobian.

    Independent of the homotopy machinery: sin uses the closed-form
    expectation, svi a quadrature expectation.  The market problem has no
    analytic equilibrium oracle here; use market_verify instead.  The root
    is accepted on its residual, ||E f(x)||_inf <= tol; otherwise, a NaN
    residual included, NewtonFailure is raised, which callers must surface
    as inconclusive rather than passed.
    """
    if inst.name == "sin":
        F, J = sin_expectation, sin_expectation_jac
    elif inst.name == "svi":
        F, J = svi_expectation, svi_expectation_jac
    else:
        raise ValueError(f"no analytic-expectation oracle for problem {inst.name!r}")
    sol = root(F, np.asarray(start, dtype=float), jac=J, method="hybr",
               options={"xtol": _ORACLE_XTOL})
    res = float(np.linalg.norm(sol.fun, np.inf))
    if not res <= tol:
        raise NewtonFailure(f"hybr stopped at x={sol.x}, |E f|_inf={res:.3e}: "
                            f"{sol.message}")
    return sol.x


def get_instance(name: str, n: int = 3) -> ProblemInstance:
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if name == "market":
        if n != 3:
            raise ValueError(f"the market problem has n = 3 goods, got n={n}")
        return market_instance()
    if name == "sin":
        return sin_instance(n)
    if name == "svi":
        return svi_instance(n)
    raise ValueError(f"unknown problem {name!r}")
