"""Spectral solver for a planar relativistic oscillator in a magnetic field
with first-order minimal-length corrections."""

from .errors import ComputationError, UsageError
from .fock import FockSpace
from .model import ModelParams, SpinorLevel, landau_level, spinor_level
from .perturbation import (
    ClusterMember,
    PTReport,
    ScanResult,
    critical_field,
    degenerate_shift,
    degeneracy_analysis,
    field_scan,
    first_order_shift,
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
    "ClusterMember",
    "PTReport",
    "ScanResult",
    "critical_field",
    "degenerate_shift",
    "degeneracy_analysis",
    "field_scan",
    "first_order_shift",
    "validation_report",
    "__version__",
]
