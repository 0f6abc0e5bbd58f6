"""Truncated two-mode boson ⊗ spinor basis.

The planar problem is represented on two chiral boson modes `a` and `b`
(occupation numbers n_a, n_b, each truncated at `cutoff`) tensored with a
two-component spinor. Mode `a` is the dynamical mode that enters the
oscillator Hamiltonian; mode `b` carries the level degeneracy. The operator
conventions are listed in CONVENTIONS.md.

Truncation note: products of ladder operators corrupt matrix elements near
the cutoff, so every computation works on the interior
n_a + n_b <= cutoff - INTERIOR_MARGIN. The margin is fixed at 2, which
covers every quadratic operator of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError

# Boson quanta kept clear of the cutoff by the interior projection.
INTERIOR_MARGIN = 2


@dataclass(frozen=True)
class FockSpace:
    """Truncated |n_a, n_b> ⊗ spinor basis: each mode keeps 0..cutoff quanta."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise UsageError(f"cutoff must be >= 1, got {self.cutoff}")
