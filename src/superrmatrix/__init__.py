"""Trigonometric R-operators for the q-deformed loop superalgebra of sl(M|N).

The package builds the operator factor by factor from recursively constructed
root-vector images, resums every factor in closed form, and verifies the
graded Yang-Baxter equation and the coproduct intertwining property
numerically.  The top level holds the names of the quick start, the CLI and
the benchmark; everything else is imported from its submodule.  Each name is
resolved on first access (PEP 562), so that ``import superrmatrix`` loads no
submodule and a command imports only the modules it runs.
"""

import importlib as _importlib

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

# each top-level name, by the submodule that defines it
_SOURCES = {
    "scalars": ("QContext",),
    "rootdata": ("SuperRank",),
    "reps": ("EvaluationRep", "GradingVector"),
    "cartanweyl": ("build_root_vectors", "unprimed_imaginary"),
    "rfactors": ("Zeta12", "build_rfactors", "k_operator_closed", "r_operator",
                 "r_prec_delta", "r_sim_delta", "r_succ_delta", "rho"),
    "verify": ("VerifyConfig", "run_suite", "verify_intertwining", "verify_ybe"),
}


def __getattr__(name):
    """Import the submodule of a top-level name on its first access and keep
    the value here, so later reads are plain attribute lookups."""
    for module, names in _SOURCES.items():
        if name in names:
            value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
