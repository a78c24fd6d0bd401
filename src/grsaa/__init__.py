"""GRSAA differentiable homotopy solver for stochastic systems of equations.

The sample size of the sample-average approximation grows smoothly as the
homotopy parameter descends from 1 to 0; a predictor-corrector tracer
follows the resulting C^1 zero path to a solution of the full-sample SAA.
"""

__version__ = "0.1.0"
