"""The error raised when the analytic-expectation oracle
(problems.oracle_solve) finds no root.  The tracer lands with its own
corrector."""

__all__ = ["NewtonFailure"]


class NewtonFailure(RuntimeError):
    """The oracle's root finder did not reach the requested tolerance."""
