"""Damped Newton for square systems; it serves the analytic-expectation
oracles (problems.oracle_solve), the independent reference the traced answers
are checked against.  The tracer lands with its own corrector."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["damped_newton", "NewtonFailure"]


class NewtonFailure(RuntimeError):
    """Newton iteration failed to reach the requested tolerance."""


def damped_newton(F: Callable[[np.ndarray], np.ndarray],
                  J: Callable[[np.ndarray], np.ndarray],
                  x0: np.ndarray,
                  tol: float = 1e-12,
                  max_iter: int = 100,
                  max_backtracks: int = 30) -> np.ndarray:
    """Solve F(x) = 0 with Armijo-style residual backtracking.

    Convergence criterion is the sup norm of the residual.  Raises
    NewtonFailure on stagnation or a singular Jacobian.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(F(x), dtype=float)
    for _ in range(max_iter):
        if np.linalg.norm(r, np.inf) <= tol:
            return x
        try:
            step = np.linalg.solve(J(x), -r)
        except np.linalg.LinAlgError as exc:
            raise NewtonFailure(f"singular Jacobian at x={x}") from exc
        lam = 1.0
        base = np.linalg.norm(r)
        for _ in range(max_backtracks):
            trial = x + lam * step
            r_trial = np.asarray(F(trial), dtype=float)
            if np.all(np.isfinite(r_trial)) and np.linalg.norm(r_trial) < base:
                x, r = trial, r_trial
                break
            lam *= 0.5
        else:
            raise NewtonFailure(f"line search stalled at x={x}, |F|={base:.3e}")
    if np.linalg.norm(r, np.inf) <= tol:
        return x
    raise NewtonFailure(
        f"no convergence in {max_iter} iterations, |F|_inf="
        f"{np.linalg.norm(r, np.inf):.3e}")
