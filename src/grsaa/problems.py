"""Benchmark problems: a CES market equilibrium, the sin system, and a
box-constrained stochastic variational inequality.

Each problem supplies one batched per-sample kernel, kernel(x, xis, w=None,
tab=None), a domain box with an interior reference point, and (where one
exists) an independent ground-truth oracle, a start-free census of the roots
of the residual's analytic expectation.  With w None the kernel returns F, the rows
f(x, xi_k); with weights w it returns (F, sum_k w_k J_k), the w-weighted sum
of the analytic x-Jacobians from the same pass, storing no per-sample
Jacobian.  The kernel facts, stated here once:

- Element by element.  Kernels build (n, q) arrays and return F as their
  column-major (q, n) transpose.  No row is built by a matrix product, whose
  BLAS kernel depends on the batch's shape, so a row's bits do not depend on
  how many rows a call has; sums over goods and the two angle-addition terms
  are added element by element.
- Tables.  Each problem tabulates the terms that depend on xi alone, which a
  blended map computes once over all N samples and passes, column-sliced, to
  every kernel call: e = 1/(xi - 1) for market, (cos xi; sin xi) for sin and
  svi.  A kernel called without tab tabulates its own samples, to the same
  bits.
- Per-point shift (market).  With c = log p - log a, good i's share p_i^e /
  g_i is exp(e c_i) / sum_j p_j exp(e c_j), and the excess demand is
  sum(p) share.  Every e = 1/(xi - 1) is negative under the clipped sample
  law (xi <= 1 - 1e-6), so shifting c once per price point by
  c* = min_j c_j bounds E_jk = exp(e_k (c_j - c*)) to (0, 1], with E = 1 at
  the argmin: nothing overflows for any xi in [-1, 1), and
  r_k = sum_j p_j E_jk >= min(p) > 0.  The kernel returns minus the excess
  demand, the operator of the market's variational inequality, as
  F = E (S / r) with S = -sum(p).
- Angle addition (sin, svi).  With a_i = i sum(x),
  sin(a_i + xi_k) = sin a_i cos xi_k + cos a_i sin xi_k and
  cos(a_i + xi_k) = cos a_i cos xi_k - sin a_i sin xi_k: 2n trig calls a
  pass instead of 2qn, plus the 2N on |xi| <= 1 that a blended map
  tabulates once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .homotopy import HomotopyMap
from .newton import NewtonFailure
from .saa import BlendedMap, StochasticSystem
from .sampling import SampleSet
from .schedule import NodeSchedule

__all__ = [
    "ProblemInstance",
    "market_kernel", "market_instance", "market_verify",
    "sin_kernel", "sin_instance", "sin_expectation",
    "svi_kernel", "svi_instance", "svi_expectation",
    "expectation_roots", "oracle_solve", "build_homotopy", "get_instance",
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


def _market_table(xis: np.ndarray) -> np.ndarray:
    """The CES exponents e = 1/(min(xi, 1 - 1e-6) - 1) as one (1, q) row.

    The clip is a RuntimeWarning with a fixed message, so Python's default
    filter shows it once rather than on every call."""
    xi = np.asarray(xis, dtype=float).reshape(-1)
    if np.any(xi > 1.0 - _XI_CLIP):
        warnings.warn("clipped CES substitution sample(s) to xi = 1 - 1e-6",
                      RuntimeWarning)
        xi = np.minimum(xi, 1.0 - _XI_CLIP)
    return (1.0 / (xi - 1.0))[None, :]


def market_kernel(p: np.ndarray, xis: np.ndarray, w: np.ndarray | None = None,
                  tab: np.ndarray | None = None):
    """Minus the excess demand, f(p, xi) = -sum(p) * (p_i^e / g_i)_i with
    unit endowments, from one shift per price point; with weights w,
    (F, sum_k w_k J_k)."""
    p = np.asarray(p, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.log(p)  # nan for p <= 0 -> rejected upstream as non-finite
        c -= _LOG_A
        c -= np.minimum.reduce(c)
    e = (_market_table(xis) if tab is None else tab)[0]  # (q,)
    F = np.multiply.outer(c, e)
    np.exp(F, out=F)
    r = F[0] * p[0]
    for j in range(1, p.size):
        r += F[j] * p[j]
    S = -np.add.reduce(p)
    F *= np.divide(S, r, out=r)
    del r  # not held through J's (3, q) temporaries
    if w is None:
        return F.T
    # d share_ki / dp_j = share_ki (e_k d_ij / p_j - (1 + e_k) share_kj), so
    # sum_k w_k J_k = S (diag(b/p) - G) - a 1^T with a = share w,
    # b = share (w e) and G = share diag(w (1 + e)) share^T (the last term's
    # sign is that of dS/dp = -1).  With F = S share in place of share that
    # is diag(F (w e) / p) - F diag(w (1 + e)) F^T / S - (F w / S) 1^T: two
    # matrix-vector products and one (3, q) x (q, 3) product, which feed J
    # only
    we = w * e
    Fw, Fwe = F @ w, F @ we
    we += w
    J = (F * we) @ F.T
    J *= -1.0 / S
    J.reshape(-1)[::p.size + 1] += Fwe / p
    Fw /= S
    J -= Fw[:, None]
    return F.T, J


def market_instance() -> ProblemInstance:
    system = StochasticSystem(
        n=3, jacobian=market_kernel,
        tabulate=_market_table, box_lo=np.full(3, 1e-3), box_hi=np.ones(3),
        # strictly interior in {p > 0, Ap < 0, e.p < 1}; the equal-price point
        # violates the first zero-profit row and is not admissible
        x0=np.array([0.40, 0.30, 0.10]))
    return ProblemInstance(name="market", system=system, B=MARKET_B, b=MARKET_b)


def market_verify(p: np.ndarray, bm: BlendedMap, tol: float = 1e-8) -> dict:
    """Check a candidate price vector against the stationarity conditions at
    the full-sample level: feasibility of B p <= b and existence of
    multipliers z >= 0 on the active rows with f^L(p) = B^T z, f^L being
    the full-sample excess demand (minus the kernel's average)."""
    p = np.asarray(p, dtype=float)
    slack = MARKET_b - MARKET_B @ p
    feasible = bool(np.all(slack >= -tol))
    active = slack <= tol
    fN = -bm.sample_average(bm.L, p)
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
    J = np.empty((n, n))
    J[...] = coef[:, None]
    J.reshape(-1)[::n + 1] += wsum
    return J


def _trig_table(xis: np.ndarray) -> np.ndarray:
    """T = (cos xi; sin xi), (2, q), written in place."""
    xi = np.asarray(xis, dtype=float).reshape(-1)
    T = np.empty((2, xi.size))
    np.cos(xi, out=T[0])
    np.sin(xi, out=T[1])
    return T


def _angles(x: np.ndarray, xis: np.ndarray, tab: np.ndarray | None):
    """(x, i, S, T) with a_i = i * sum(x), S = (sin a; cos a), (2, n), and
    T = (cos xi; sin xi), (2, q), read from tab or tabulated from xis."""
    x = np.asarray(x, dtype=float)
    i = np.arange(1.0, x.size + 1)
    a = i * np.add.reduce(x)
    return (x, i, np.array((np.sin(a), np.cos(a))),
            _trig_table(xis) if tab is None else tab)


def _combine(P: np.ndarray, T: np.ndarray) -> np.ndarray:
    """P_0i T_0k + P_1i T_1k, (n, q), for P (2, n): both products share one
    (2, n, q) buffer, since a second (n, q) temporary made the sin-dims
    kernel about 40% slower."""
    B = P[:, :, None] * T[:, None, :]
    B[0] += B[1]
    return B[0]


def sin_kernel(x: np.ndarray, xis: np.ndarray, w: np.ndarray | None = None,
               tab: np.ndarray | None = None):
    """f_i(x, xi) = x_i - 5 sin(i * sum(x) + xi); with weights w, also the sum
    of the x-Jacobians I + c_k 1^T, c_ki = -5 i cos(a_i + xi_k), which needs
    only T @ w = (w.cos xi, w.sin xi)."""
    x, i, S, T = _angles(x, xis, tab)
    S *= -5.0
    F = _combine(S, T)
    F += x[:, None]
    if w is None:
        return F.T
    u = T @ w
    return F.T, _eye_plus_rank1(i * (S[1] * u[0] - S[0] * u[1]),
                                np.add.reduce(w))


def sin_expectation(x: np.ndarray) -> np.ndarray:
    """E_xi f(x, xi) for xi ~ uniform[-1, 1]: x_i - 5 sin(1) sin(i sum(x))."""
    return np.asarray(x, dtype=float) - _mean("sin", np.sum(x), np.size(x))


def sin_instance(n: int) -> ProblemInstance:
    system = StochasticSystem(
        n=n, jacobian=sin_kernel, tabulate=_trig_table,
        box_lo=np.full(n, -10.0), box_hi=np.full(n, 10.0), x0=np.zeros(n))
    return ProblemInstance(name="sin", system=system)


# ---------------------------------------------------------------------------
# stochastic variational inequality over the box [-10, 10]^n
# ---------------------------------------------------------------------------

def svi_kernel(x: np.ndarray, xis: np.ndarray, w: np.ndarray | None = None,
               tab: np.ndarray | None = None):
    """f_i(x, xi) = x_i - exp(cos(i * sum(x) + xi)); with weights w, also the
    sum of the x-Jacobians I + c_k 1^T, c_ki = i exp(cos(a_i + xi_k))
    sin(a_i + xi_k)."""
    x, i, S, T = _angles(x, xis, tab)
    E = np.exp(_combine(np.array((S[1], -S[0])), T))
    if w is not None:
        coef = _combine(S, T)
        coef *= E
        J = _eye_plus_rank1(i * (coef @ w), np.add.reduce(w))
    F = np.subtract(x[:, None], E, out=E).T
    return F if w is None else (F, J)


def svi_expectation(x: np.ndarray) -> np.ndarray:
    """E_xi f(x, xi) for xi ~ uniform[-1, 1]: x_i - E exp(cos(i sum(x) + xi))."""
    return np.asarray(x, dtype=float) - _mean("svi", np.sum(x), np.size(x))


def svi_instance(n: int) -> ProblemInstance:
    """Box-constrained SVI as a smoothed-KKT instance.

    Constraint rows are [I; -I] x <= (10e; 10e), the box itself.  Internally
    the kernel's orientation y = -w is used, so the multipliers of the
    stated system are neg(y) and the slacks are pos(y).
    """
    system = StochasticSystem(
        n=n, jacobian=svi_kernel, tabulate=_trig_table,
        box_lo=np.full(n, -10.0), box_hi=np.full(n, 10.0), x0=np.zeros(n))
    B = np.vstack([np.eye(n), -np.eye(n)])
    b = np.full(2 * n, 10.0)
    return ProblemInstance(name="svi", system=system, B=B, b=b)


# ---------------------------------------------------------------------------
# ground-truth oracle: a census of the expectation system's roots
# ---------------------------------------------------------------------------

# the 16-point Gauss-Legendre rule on [-1, 1]: for the mean of exp(cos(a + xi))
# over xi it matches the Bessel series to 5e-15 at |a| <= 200
_GL_XI, _GL_W = np.polynomial.legendre.leggauss(16)
_SIN_C = 5.0 * math.sin(1.0)
# per problem, a bound M with |G_i(s)| <= M and |G_i'(s)| <= i M
_BOUND = {"sin": _SIN_C, "svi": math.e}


def _mean(name: str, s, n: int) -> np.ndarray:
    """G_i(s) = E g(i s, xi), i = 1..n, for each entry of s, with f_i(x, xi) =
    x_i - g(i sum(x), xi): sin's closed form, svi's Gauss-Legendre rule."""
    a = np.multiply.outer(s, np.arange(1.0, n + 1))
    if name == "sin":
        return _SIN_C * np.sin(a)
    return np.exp(np.cos(np.add.outer(a, _GL_XI))) @ (0.5 * _GL_W)


def expectation_roots(inst: ProblemInstance) -> np.ndarray:
    """Every root x of E f(x) = 0, one row each, in increasing order of sum(x).

    Every root is x = G(s), for s a root of phi(s) = s - sum_i G_i(s) in
    [-n M, n M], where |phi'| <= lip = 1 + M n (n + 1) / 2.  A cell [a, b]
    holds no root when |phi(a)| + |phi(b)| > lip (b - a + 1e-13) (Lipschitz
    exclusion: Moore, Kearfott & Cloud, Introduction to Interval Analysis,
    SIAM 2009; the 1e-13 covers phi's rounding, about eps lip |s|); the other
    cells are halved until they are 1e-13 wide.  Each run of adjacent cells
    left holds one root, polished by brentq where phi changes sign across it.
    """
    if inst.name not in _BOUND:
        raise ValueError(f"no analytic-expectation oracle for problem {inst.name!r}")
    n, M = inst.system.n, _BOUND[inst.name]
    lip = 1.0 + M * n * (n + 1) / 2.0

    def phi(s):
        return s - _mean(inst.name, s, n).sum(axis=-1)

    lo, h, j = -n * M, 2.0 * n * M, np.array([0])  # cells lo + [j, j + 1] h
    while h > 1e-13:
        h /= 2.0
        j = np.sort(np.concatenate((2 * j, 2 * j + 1)))
        a = lo + j * h
        j = j[np.abs(phi(np.stack((a, a + h)))).sum(axis=0) <= lip * (h + 1e-13)]
    # one root per run of adjacent cells; brentq, xtol ~ 0, stops at 4 eps |s|
    cut = np.flatnonzero(np.diff(j) > 1) + 1
    ends = lo + np.stack((j[np.r_[0, cut]], j[np.r_[cut - 1, -1]] + 1), axis=1) * h
    s = np.array([brentq(phi, a, b, xtol=1e-300) if phi(a) * phi(b) <= 0.0
                  else 0.5 * (a + b) for a, b in ends])
    # x = G(s) + phi(s) / n sums to s, so its residual does not carry G' phi(s)
    return _mean(inst.name, s, n) + (phi(s) / n)[:, None]


def oracle_solve(inst: ProblemInstance, start: np.ndarray,
                 tol: float = 1e-12) -> np.ndarray:
    """The root of expectation_roots nearest `start` (market has none: use
    market_verify), accepted when ||E f(x)||_inf <= tol; otherwise, a NaN
    residual included, NewtonFailure is raised: callers report inconclusive."""
    roots = expectation_roots(inst)
    x = min(roots, key=lambda r: np.linalg.norm(r - start))
    res = float(np.linalg.norm(x - _mean(inst.name, x.sum(), x.size), np.inf))
    if not res <= tol:
        raise NewtonFailure(f"census root x={x} has |E f|_inf={res:.3e}")
    return x


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
