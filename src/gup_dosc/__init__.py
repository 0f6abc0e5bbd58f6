"""Spectral solver for a planar relativistic oscillator in a magnetic field
with first-order minimal-length corrections.

Every eigensolve here is a J-sector block of at most cutoff - 1 states, too
small for BLAS worker threads to save wall time; they only burn CPU spinning.
So OpenBLAS defaults to one thread, set before this package loads numpy. An
explicit OPENBLAS_NUM_THREADS still wins, and a numpy imported earlier keeps
the threads it started with.

Importing the package loads no numpy, and neither does anything but a
scan's spectra: the parameter, level and basis names are pure Python, the
solver names load `perturbation` on first use, and a shift report, the
level rows at any field, the oracle's J-sector eigenvalues and the stored
block's eigenpairs (`shifts_of_matrix`) are pure Python too. numpy loads
with a scan's first dense spectrum (a != 0, or the critical field).
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ComputationError, UsageError
from .fock import FockSpace
from .params import ModelParams, SpinorLevel, landau_level, spinor_level

__version__ = "0.1.0"

# served from `perturbation` by the module __getattr__ (PEP 562)
_SOLVER_NAMES = (
    "PTReport",
    "critical_field",
    "degenerate_shift",
    "field_scan",
    "first_order_shift",
    "oracle_check",
    "validation_report",
)

__all__ = [
    "ComputationError",
    "UsageError",
    "FockSpace",
    "ModelParams",
    "SpinorLevel",
    "landau_level",
    "spinor_level",
    *_SOLVER_NAMES,
    "__version__",
]


def __getattr__(name: str):
    if name in _SOLVER_NAMES:
        from . import perturbation

        return getattr(perturbation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
