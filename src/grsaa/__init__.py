"""GRSAA differentiable homotopy solver for stochastic systems of equations.

The sample size of the sample-average approximation grows smoothly as the
homotopy parameter descends from 1 to 0; a predictor-corrector tracer
follows the resulting C^1 zero path to a solution of the full-sample SAA.
"""

from .sampling import (SampleSet, Partition, UniformBox, draw_samples,
                       partition_uniform, partition_linear)
from .schedule import NodeSchedule, make_schedule, segment_of, theta, theta_prime
from .saa import StochasticSystem, BlendedMap, check_coercivity, fd_jacobian_batch
from .homotopy import HomotopyMap, transform_derivs, solve_start_y
from .tracer import (TraceConfig, TraceResult, PathPoint, trace, tangent,
                     correct, path_to_csv, SingularJacobianError)
from .newton import damped_newton, NewtonFailure
from . import problems

__version__ = "0.1.0"

__all__ = [
    "SampleSet", "Partition", "UniformBox", "draw_samples",
    "partition_uniform", "partition_linear",
    "NodeSchedule", "make_schedule", "segment_of", "theta", "theta_prime",
    "StochasticSystem", "BlendedMap", "check_coercivity", "fd_jacobian_batch",
    "HomotopyMap", "transform_derivs", "solve_start_y",
    "TraceConfig", "TraceResult", "PathPoint", "trace", "tangent", "correct",
    "path_to_csv", "SingularJacobianError",
    "damped_newton", "NewtonFailure",
    "problems",
]
