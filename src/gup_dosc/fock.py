"""Truncated two-mode boson ⊗ spinor basis and the operator algebra on it.

The planar problem is represented on two chiral boson modes `a` and `b`
(occupation numbers n_a, n_b, each truncated at `cutoff`) optionally tensored
with a two-component spinor. Mode `a` is the dynamical mode that enters the
oscillator Hamiltonian; mode `b` carries the level degeneracy.

Operator conventions (see CONVENTIONS.md; every sign here is pinned by a
test, with l = sqrt(hbar / (m * |omega|)) the oscillator length):

    z      = l * (i a + b†)            zbar   = l * (-i a† + b) = adjoint(z)
    p_z    = (hbar / 2l) * (a† - i b)  p_zbar = (hbar / 2l) * (a + i b†)
    L_z    = hbar * (n_b - n_a)

These satisfy [z, p_z] = i hbar, [zbar, p_zbar] = i hbar, [z, p_zbar] = 0,
and make (1/sqrt(m w hbar)) p_zbar - (i/2) sqrt(m w / hbar) z equal to `a`
exactly.

Truncation note: products of ladder operators corrupt matrix elements near
the cutoff, so physics assertions are made on the interior projection
n_a + n_b <= cutoff - INTERIOR_MARGIN. The margin is fixed at 2, which
covers every operator built here; `interior_indices` takes it as a parameter
only so that tests can build reference projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .numerics import adjoint, as_matrix

# Boson quanta kept clear of the cutoff by the interior projection.
INTERIOR_MARGIN = 2


@dataclass(frozen=True)
class FockSpace:
    """Truncated |n_a, n_b> ⊗ spinor basis with a fixed flat index order.

    Flat order is lexicographic in (s, n_a, n_b) with spin-up first:
    index = s * (cutoff+1)^2 + n_a * (cutoff+1) + n_b. Golden files and
    eigenvector reports depend on this ordering.
    """

    cutoff: int
    include_spin: bool = True

    def __post_init__(self):
        if self.cutoff < 1:
            raise UsageError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def n_states(self) -> int:
        return self.cutoff + 1

    @property
    def spinless_dim(self) -> int:
        return self.n_states ** 2

    @property
    def dim(self) -> int:
        return 2 * self.spinless_dim if self.include_spin else self.spinless_dim

    def without_spin(self) -> "FockSpace":
        return FockSpace(cutoff=self.cutoff, include_spin=False)

    def index(self, n_a: int, n_b: int, spin_up: bool | None = None) -> int:
        """Flat index of |n_a, n_b> (optionally ⊗ spinor component)."""
        if not (0 <= n_a <= self.cutoff and 0 <= n_b <= self.cutoff):
            raise UsageError(
                f"occupation ({n_a}, {n_b}) outside cutoff {self.cutoff}"
            )
        base = n_a * self.n_states + n_b
        if not self.include_spin:
            if spin_up is not None:
                raise UsageError("space carries no spinor factor")
            return base
        if spin_up is None:
            raise UsageError("spinor component required for a spinful space")
        return base if spin_up else self.spinless_dim + base

    def unpack(self, index: int) -> tuple[int, int, bool | None]:
        """Inverse of `index`: returns (n_a, n_b, spin_up or None)."""
        if not (0 <= index < self.dim):
            raise UsageError(f"index {index} outside dimension {self.dim}")
        spin_up: bool | None = None
        if self.include_spin:
            spin_up = index < self.spinless_dim
            index %= self.spinless_dim
        return index // self.n_states, index % self.n_states, spin_up

    def interior_indices(self, margin: int = INTERIOR_MARGIN) -> np.ndarray:
        """Flat indices of states with n_a + n_b <= cutoff - margin."""
        if margin < 0 or margin > self.cutoff:
            raise UsageError(f"margin {margin} invalid for cutoff {self.cutoff}")
        keep = [
            n_a * self.n_states + n_b
            for n_a in range(self.n_states)
            for n_b in range(self.n_states)
            if n_a + n_b <= self.cutoff - margin
        ]
        keep = np.asarray(keep, dtype=int)
        if self.include_spin:
            keep = np.concatenate([keep, keep + self.spinless_dim])
        return keep


@dataclass(frozen=True)
class OscParams:
    """Oscillator frame: mass, frame frequency and hbar.

    omega_tilde may be negative (over-critical field); operators are then
    built with |omega_tilde| as the length scale and the sign is applied by
    the Hamiltonian assembly, not here.
    """

    mass: float
    omega_tilde: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise UsageError(f"mass must be positive, got {self.mass}")
        if self.hbar <= 0.0:
            raise UsageError(f"hbar must be positive, got {self.hbar}")

    @property
    def length(self) -> float:
        """Oscillator length sqrt(hbar / (m |omega_tilde|))."""
        if self.omega_tilde == 0.0:
            raise UsageError("oscillator length undefined at critical field")
        return math.sqrt(self.hbar / (self.mass * abs(self.omega_tilde)))


def _single_mode_lowering(n_states: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_states, dtype=float)), k=1).astype(
        np.complex128
    )


def _with_spin(space: FockSpace, m: np.ndarray) -> np.ndarray:
    if not space.include_spin:
        return m
    return np.kron(np.eye(2, dtype=np.complex128), m)


def ladder_a(space: FockSpace) -> np.ndarray:
    """Annihilation operator of the dynamical mode: <n_a - 1|a|n_a> = sqrt(n_a)."""
    low = _single_mode_lowering(space.n_states)
    return _with_spin(space, np.kron(low, np.eye(space.n_states, dtype=np.complex128)))


def ladder_b(space: FockSpace) -> np.ndarray:
    """Annihilation operator of the degeneracy-carrying mode."""
    low = _single_mode_lowering(space.n_states)
    return _with_spin(space, np.kron(np.eye(space.n_states, dtype=np.complex128), low))


def position_ops(space: FockSpace, p: OscParams) -> tuple[np.ndarray, np.ndarray]:
    """Complex positions (z, zbar) with zbar = adjoint(z) exactly."""
    ell = p.length
    a, b = ladder_a(space), ladder_b(space)
    z = ell * (1j * a + adjoint(b))
    return z, adjoint(z)


def momentum_ops(space: FockSpace, p: OscParams) -> tuple[np.ndarray, np.ndarray]:
    """Complex momenta (p_z, p_zbar) with p_zbar = adjoint(p_z) exactly."""
    ell = p.length
    a, b = ladder_a(space), ladder_b(space)
    pzbar = (p.hbar / (2.0 * ell)) * (a + 1j * adjoint(b))
    return adjoint(pzbar), pzbar


def p_squared(space: FockSpace, p: OscParams) -> np.ndarray:
    """Planar momentum squared, 4 p_z p_zbar (the primary construction).

    Positive semidefinite on the interior projection by construction
    (it is 4 times p_zbar† p_zbar).
    """
    pz, pzbar = momentum_ops(space, p)
    return 4.0 * (pz @ pzbar)


def angular_momentum(space: FockSpace, hbar: float = 1.0) -> np.ndarray:
    """Orbital angular momentum L_z = hbar (n_b - n_a), diagonal in this basis."""
    n = space.n_states
    n_a = np.repeat(np.arange(n), n)
    n_b = np.tile(np.arange(n), n)
    diag = hbar * (n_b - n_a).astype(float)
    return _with_spin(space, np.diag(diag).astype(np.complex128))


def p_squared_ladder_form(space: FockSpace, p: OscParams) -> np.ndarray:
    """Ladder-form decomposition of the momentum squared.

    2 m w hbar [a†a + aa† - (m w / 2 hbar) z zbar + L_z / hbar] with
    w = |omega_tilde|. Must agree with `p_squared` on the interior
    projection; keeping both constructions is the central algebra check
    of this module.
    """
    w = abs(p.omega_tilde)
    a = ladder_a(space)
    z, zbar = position_ops(space, p)
    ada = adjoint(a) @ a
    aad = a @ adjoint(a)
    lz = angular_momentum(space, hbar=p.hbar)
    return (
        2.0
        * p.mass
        * w
        * p.hbar
        * (
            ada
            + aad
            - (p.mass * w / (2.0 * p.hbar)) * (z @ zbar)
            + lz / p.hbar
        )
    )


def embed_spinor(
    upper, lower, off_ur, off_ll
) -> np.ndarray:
    """Block matrix [[upper, off_ur], [off_ll, lower]] in the flat spin order."""
    blocks = [as_matrix(m) for m in (upper, lower, off_ur, off_ll)]
    dims = {m.shape[0] for m in blocks}
    if len(dims) != 1:
        raise UsageError(f"spinor blocks disagree in dimension: {sorted(dims)}")
    upper, lower, off_ur, off_ll = blocks
    return np.block([[upper, off_ur], [off_ll, lower]])


def compress(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Submatrix on the given flat indices (interior projection)."""
    matrix = as_matrix(matrix)
    return matrix[np.ix_(indices, indices)]
