"""Trigonometric R-operators for the q-deformed loop superalgebra of sl(M|N).

The package builds the operator factor by factor from recursively constructed
root-vector images, resums every factor in closed form, and verifies the
graded Yang-Baxter equation and the coproduct intertwining property
numerically.  The top level holds the names of the quick start, the CLI and
the benchmark; everything else is imported from its submodule.
"""

from .scalars import QContext
from .rootdata import SuperRank
from .reps import EvaluationRep, GradingVector
from .cartanweyl import build_root_vectors, unprimed_imaginary
from .rfactors import (
    Zeta12,
    build_rfactors,
    k_operator_closed,
    r_operator,
    r_prec_delta,
    r_sim_delta,
    r_succ_delta,
    rho,
)
from .verify import VerifyConfig, run_suite, verify_intertwining, verify_ybe

__all__ = [
    "EvaluationRep",
    "GradingVector",
    "QContext",
    "SuperRank",
    "VerifyConfig",
    "Zeta12",
    "build_rfactors",
    "build_root_vectors",
    "k_operator_closed",
    "r_operator",
    "r_prec_delta",
    "r_sim_delta",
    "r_succ_delta",
    "rho",
    "run_suite",
    "unprimed_imaginary",
    "verify_intertwining",
    "verify_ybe",
]

__version__ = "0.1.0"
