"""Foundation numerics: array jets, a Hermitian eigensolver, and an adaptive
embedded Runge-Kutta integrator for complex ODE systems.

All types are immutable after construction and all operations are pure
functions of their inputs, so everything here is safe to call concurrently.
"""

from .eig import HermitianMatrix, hermitian_eig
from .jets import jet_mul, jet_recip
from .ode import Trajectory, ode_evolve, ramp_evolve

__all__ = [
    "HermitianMatrix",
    "Trajectory",
    "hermitian_eig",
    "jet_mul",
    "jet_recip",
    "ode_evolve",
    "ramp_evolve",
]
