"""Spectral solver for a planar relativistic oscillator in a magnetic field
with first-order minimal-length corrections.

Every eigensolve here is a J-sector block of at most cutoff - 1 states, too
small for BLAS worker threads to save wall time; they only burn CPU spinning.
So OpenBLAS defaults to one thread, set before this package loads numpy. An
explicit OPENBLAS_NUM_THREADS still wins, and a numpy imported earlier keeps
the threads it started with.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import ComputationError, UsageError
from .fock import FockSpace
from .model import ModelParams, SpinorLevel, landau_level, spinor_level
from .perturbation import (
    PTReport,
    critical_field,
    degenerate_shift,
    field_scan,
    first_order_shift,
    oracle_check,
    validation_report,
)

__version__ = "0.1.0"

__all__ = [
    "ComputationError",
    "UsageError",
    "FockSpace",
    "ModelParams",
    "SpinorLevel",
    "landau_level",
    "spinor_level",
    "PTReport",
    "critical_field",
    "degenerate_shift",
    "field_scan",
    "first_order_shift",
    "oracle_check",
    "validation_report",
    "__version__",
]
