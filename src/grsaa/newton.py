"""The error raised when the analytic-expectation oracle
(problems.oracle_solve) returns a root whose residual misses its tolerance.
The tracer lands with its own corrector."""

__all__ = ["NewtonFailure"]


class NewtonFailure(RuntimeError):
    """The oracle's root did not reach the requested tolerance."""
