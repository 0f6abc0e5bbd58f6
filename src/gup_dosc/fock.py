"""Truncated two-mode boson ⊗ spinor basis.

The planar problem is represented on two chiral boson modes `a` and `b`
(occupation numbers n_a, n_b, each truncated at `cutoff`) tensored with a
two-component spinor. Mode `a` is the dynamical mode that enters the
oscillator Hamiltonian; mode `b` carries the level degeneracy. The operator
conventions are listed in CONVENTIONS.md. This module builds no operators:
it holds the cutoff, its interior, whose J-sectors and diagonal lines every
J-block is built from (`FockSpace.sectors`, `FockSpace.line`), and their costs.

Truncation note: products of ladder operators corrupt matrix elements near
the cutoff, so every computation works on the interior
n_a + n_b <= T = cutoff - INTERIOR_MARGIN (`FockSpace.top`). The margin is
fixed at 2, which covers every quadratic operator of the model, and a state
(n, spectator k) of the model fits when n + k <= T.
"""

from __future__ import annotations

from .errors import UsageError
from .params import _Value

# Boson quanta kept clear of the cutoff by the interior projection.
INTERIOR_MARGIN = 2
# Largest accepted cutoff. Memory stays small there: one J-sector stack at a
# time, its configs bounded by STACK_BYTES (a lone block may exceed it, 8 MB at
# the limit), plus spectra of 8 MB each. Eigensolver work of a scan's dense
# spectrum (a != 0, or the critical field) grows as cutoff^4: 5e11 dim^3 at the
# limit. An a = 0 spectrum off the critical field is closed form, cutoff^2
# work, and the critical field's level rows are two inertia counts per
# distinct level over the J-chains, cutoff^2 work each. The
# oracle solves only the J-sectors of its states, as bands: at most
# `model.STEPS` inverse-iteration passes of O(dim) per eigenvalue,
# dim <= cutoff - 1.
MAX_CUTOFF = 1000
# Bytes of the largest block of one J-sector stack (`model.sector_stacks`,
# the J-band scattered into dense blocks), summed over its configs: it bounds
# each pass of a scan (`stack_configs`, `perturbation.field_scan`).
# A scan pass with the eigensolver's copies of its stack and its spectra then
# adds under 10 MB of peak RSS (measured at cutoffs 120 and 200).
STACK_BYTES = 2 * 2 ** 20


def sector_cost(cutoff: int) -> tuple[int, int]:
    """(sum of dim^3 over the J-sector blocks, bytes of the largest block).

    With T = cutoff - INTERIOR_MARGIN the 2T + 2 blocks have dimensions
    1 .. T + 1, each twice, so sum dim^3 = (T+1)^2 (T+2)^2 / 2 (about
    cutoff^4 / 2) and the largest float64 block takes 8 (T+1)^2 bytes.
    """
    t = cutoff - INTERIOR_MARGIN
    return (t + 1) ** 2 * (t + 2) ** 2 // 2, 8 * (t + 1) ** 2


def stack_configs(cutoff: int) -> int:
    """How many configs one J-sector stack holds at this cutoff: as many as
    fit in STACK_BYTES with the largest block, and at least one."""
    return max(1, STACK_BYTES // max(1, sector_cost(cutoff)[1]))


class FockSpace(_Value):
    """Truncated |n_a, n_b> ⊗ spinor basis: each mode keeps 0..cutoff quanta,
    and computations use the interior n_a + n_b <= `top`."""

    cutoff: int

    def _check(self):
        if self.cutoff < INTERIOR_MARGIN:
            raise UsageError(
                f"cutoff {self.cutoff} is below the interior margin {INTERIOR_MARGIN}"
            )
        if self.cutoff > MAX_CUTOFF:
            # Decimal formats the estimate even where a float would overflow;
            # imported here to keep it out of every run's start-up
            from decimal import Decimal

            work, block = map(Decimal, sector_cost(self.cutoff))
            raise UsageError(
                f"cutoff {self.cutoff} exceeds the limit {MAX_CUTOFF}: one interior "
                f"spectrum would take {work:.1e} dim^3 of eigensolver work and "
                f"{block:.1e} bytes for its largest block"
            )

    @property
    def top(self) -> int:
        """T = cutoff - INTERIOR_MARGIN, the largest interior n_a + n_b."""
        return self.cutoff - INTERIOR_MARGIN

    @property
    def sectors(self) -> range:
        """The J = n_a - n_b + [spin down] of the interior states, -T .. T + 1."""
        return range(-self.top, self.top + 2)

    def line(self, d: int) -> range:
        """The n_b of the interior states with n_a - n_b = d, ascending:
        n_b >= 0, n_a >= 0 and n_a + n_b <= T; empty beyond the interior."""
        return range(max(0, -d), (self.top - d) // 2 + 1)
