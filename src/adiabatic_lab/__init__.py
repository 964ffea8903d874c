"""adiabatic_lab: slowly switched quantum perturbation series, their
divergent phases, and cross-validated level shifts.

Three independent routes (adaptive ODE evolution, the divergent amplitude
series, and a phase-function recursion) are provided for the exactly
solvable two-level model, together with the general finite-level machinery
and its exact-diagonalization oracle.
"""

from . import nstate, numkit, twostate
from .errors import (
    ConsistencyError,
    ContinuationError,
    DegeneracyError,
    DomainError,
    IntegrationError,
    LabError,
    SingularJetError,
)

__version__ = "0.1.0"

__all__ = [
    "numkit",
    "twostate",
    "nstate",
    "LabError",
    "DomainError",
    "IntegrationError",
    "DegeneracyError",
    "ContinuationError",
    "SingularJetError",
    "ConsistencyError",
    "__version__",
]
