"""Dense reference algebra on the full truncated basis, for the tests only.

No command builds these operators: reports come from the J-sector blocks of
`gup_dosc.model.SectorBand` and the closed-form tower elements of
`gup_dosc.perturbation`. The tests compare those against the dense
transcription of CONVENTIONS.md here, with l = sqrt(hbar / (m |omega|)):

    z      = l * (i a + b†)            zbar   = l * (-i a† + b) = adjoint(z)
    p_z    = (hbar / 2l) * (a† - i b)  p_zbar = (hbar / 2l) * (a + i b†)
    L_z    = hbar * (n_b - n_a)

Products of ladder operators corrupt matrix elements near the cutoff, so
assertions are made on the interior projection (`Space.interior_indices`).

The module also keeps the per-cluster loop that the degeneracy histograms of
`gup_dosc.perturbation` are checked against (`spectral_clusters_loop`), and
the a = 0 spectrum off the critical field as numpy forms it over the whole
(n_a, n_b) grid (`pair_spectrum_grid`), which the runs of
`gup_dosc.model.pair_spectrum`, expanded, must equal bit for bit, and over
one J-sector its `SectorBand.levels`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from gup_dosc.errors import UsageError
from gup_dosc.fock import INTERIOR_MARGIN, FockSpace
from gup_dosc.numerics import as_matrix
from gup_dosc.params import ModelParams


def _check_same_dim(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape[0] != b.shape[0]:
        raise UsageError(
            f"{op}: dimension mismatch, {a.shape[0]} vs {b.shape[0]}"
        )


def adjoint(a) -> np.ndarray:
    """Conjugate transpose. An exact involution: adjoint(adjoint(a)) == a."""
    return as_matrix(a).conj().T.copy()


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a."""
    a, b = as_matrix(a), as_matrix(b)
    _check_same_dim(a, b, "commutator")
    return a @ b - b @ a


class Space(FockSpace):
    """Truncated |n_a, n_b> ⊗ spinor basis with a fixed flat index order.

    Flat order is lexicographic in (s, n_a, n_b) with spin-up first:
    index = s * (cutoff+1)^2 + n_a * (cutoff+1) + n_b.
    """

    include_spin: bool = True

    @property
    def n_states(self) -> int:
        return self.cutoff + 1

    @property
    def spinless_dim(self) -> int:
        return self.n_states ** 2

    @property
    def dim(self) -> int:
        return 2 * self.spinless_dim if self.include_spin else self.spinless_dim

    def without_spin(self) -> "Space":
        return Space(cutoff=self.cutoff, include_spin=False)

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
        """Flat indices of states with n_a + n_b <= cutoff - margin, ascending."""
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


def sector_j(space: Space, index) -> int:
    """J = n_a - n_b + [spin down] of a flat basis index."""
    n_a, n_b, spin_up = space.unpack(int(index))
    return n_a - n_b + (0 if spin_up else 1)


def sector_indices(space: Space, j: int) -> np.ndarray:
    """Flat indices of the interior states with J = j, ascending: spin up,
    then spin down, each ascending in n_b, the rows of the J = j stack of
    `gup_dosc.model.sector_stacks`."""
    return np.array(
        [i for i in space.interior_indices() if sector_j(space, i) == j], dtype=int
    )


def sector_block(space: Space, dense: np.ndarray, j: int) -> np.ndarray:
    """The J = j interior block of a dense operator in the basis of the
    J-sector blocks: each state |n_a, n_b, s> carries the phase i^{n_b}.

    The phases are exact, [1, i, -1, -i][n_b % 4]; 1j ** n_b leaves roundoff
    in the imaginary parts.
    """
    indices = sector_indices(space, j)
    phase = np.array([1, 1j, -1, -1j])[[space.unpack(int(i))[1] % 4 for i in indices]]
    return phase.conj()[:, None] * compress(dense, indices) * phase[None, :]


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


def frame(p: ModelParams) -> OscParams:
    """Oscillator frame: the reduced frequency, or the bare one at the
    critical field, where only the kinetic 2 c p_z coupling survives."""
    freq = p.omega_tilde if p.omega_tilde != 0.0 else p.omega
    return OscParams(mass=p.mass, omega_tilde=freq, hbar=p.hbar)


def _single_mode_lowering(n_states: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_states, dtype=float)), k=1).astype(
        np.complex128
    )


def _with_spin(space: Space, m: np.ndarray) -> np.ndarray:
    if not space.include_spin:
        return m
    return np.kron(np.eye(2, dtype=np.complex128), m)


def ladder_a(space: Space) -> np.ndarray:
    """Annihilation operator of the dynamical mode: <n_a - 1|a|n_a> = sqrt(n_a)."""
    low = _single_mode_lowering(space.n_states)
    return _with_spin(space, np.kron(low, np.eye(space.n_states, dtype=np.complex128)))


def ladder_b(space: Space) -> np.ndarray:
    """Annihilation operator of the degeneracy-carrying mode."""
    low = _single_mode_lowering(space.n_states)
    return _with_spin(space, np.kron(np.eye(space.n_states, dtype=np.complex128), low))


def position_ops(space: Space, p: OscParams) -> tuple[np.ndarray, np.ndarray]:
    """Complex positions (z, zbar) with zbar = adjoint(z) exactly."""
    ell = p.length
    a, b = ladder_a(space), ladder_b(space)
    z = ell * (1j * a + adjoint(b))
    return z, adjoint(z)


def momentum_ops(space: Space, p: OscParams) -> tuple[np.ndarray, np.ndarray]:
    """Complex momenta (p_z, p_zbar) with p_zbar = adjoint(p_z) exactly."""
    ell = p.length
    a, b = ladder_a(space), ladder_b(space)
    pzbar = (p.hbar / (2.0 * ell)) * (a + 1j * adjoint(b))
    return adjoint(pzbar), pzbar


def p_squared(space: Space, p: OscParams) -> np.ndarray:
    """Planar momentum squared, 4 p_z p_zbar (the primary construction).

    Positive semidefinite on the interior projection by construction
    (it is 4 times p_zbar† p_zbar).
    """
    pz, pzbar = momentum_ops(space, p)
    return 4.0 * (pz @ pzbar)


def angular_momentum(space: Space, hbar: float = 1.0) -> np.ndarray:
    """Orbital angular momentum L_z = hbar (n_b - n_a), diagonal in this basis."""
    n = space.n_states
    n_a = np.repeat(np.arange(n), n)
    n_b = np.tile(np.arange(n), n)
    diag = hbar * (n_b - n_a).astype(float)
    return _with_spin(space, np.diag(diag).astype(np.complex128))


def p_squared_ladder_form(space: Space, p: OscParams) -> np.ndarray:
    """Ladder-form decomposition of the momentum squared.

    2 m w hbar [a†a + aa† - (m w / 2 hbar) z zbar + L_z / hbar] with
    w = |omega_tilde|. Must agree with `p_squared` on the interior
    projection; keeping both constructions is the central algebra check.
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


def build_h0(space: Space, p: ModelParams) -> np.ndarray:
    """The unperturbed Hamiltonian on the full truncated basis.

        H0 = [[ m c^2,              2 c p_z + i m wt c zbar ],
              [ adjoint(from above), -m c^2                 ]]

    with the lower-left block the exact adjoint of the upper-right one.
    """
    sless = space.without_spin()
    mc2 = p.rest_energy
    rest = mc2 * np.eye(sless.spinless_dim, dtype=np.complex128)
    osc = frame(p)
    if osc.omega_tilde == 0.0:
        off = np.zeros_like(rest)
    else:
        _, zbar = position_ops(sless, osc)
        pz, _ = momentum_ops(sless, osc)
        off = (
            2.0 * p.light_speed * pz
            + 1j * p.mass * p.omega_tilde * p.light_speed * zbar
        )
    return embed_spinor(rest, -rest, off, adjoint(off))


def build_h_prime(
    space: Space, p: ModelParams, strength: float | None = None
) -> np.ndarray:
    """Minimal-length perturbation -a c p^2 on both spinor components.

    `strength` overrides p.gup_a and may be negative, as in the oracle's
    stencil. Identically zero at the critical field, where the
    ladder representation of p^2 carries a vanishing prefactor.
    """
    a = p.gup_a if strength is None else strength
    sless = space.without_spin()
    if a == 0.0 or p.omega_tilde == 0.0:
        zero = np.zeros((sless.spinless_dim, sless.spinless_dim), dtype=np.complex128)
        return embed_spinor(zero, zero, zero, zero)
    p2 = p_squared(sless, frame(p))
    block = -a * p.light_speed * p2
    zero = np.zeros_like(block)
    return embed_spinor(block, block, zero, zero)


def spectral_clusters_loop(spectrum, window: float) -> list[tuple[float, int]]:
    """(mean energy, multiplicity) for maximal runs closer than `window`, one
    cluster at a time: the loop whose multiplicities
    `perturbation.spectral_clusters` takes from one pass over the gaps."""
    out: list[tuple[float, int]] = []
    start = 0
    w = np.asarray(spectrum)
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > window:
            out.append((float(np.mean(w[start:k])), k - start))
            start = k
    return out


def degeneracy_histogram_loop(spectrum, window: float) -> dict[int, int]:
    """{multiplicity: number of clusters}, counted over `spectral_clusters_loop`."""
    counts: dict[int, int] = {}
    for _, size in spectral_clusters_loop(spectrum, window):
        counts[size] = counts.get(size, 0) + 1
    return dict(sorted(counts.items()))


def band_matrix(entries) -> np.ndarray:
    """The dense symmetric matrix of a J-band's (diagonal, entries (i, i - 1),
    entries (i, i - 2)) (`gup_dosc.model.SectorBand.entries`)."""
    diag, off1, off2 = entries
    a = np.diag(diag)
    for offset, off in ((1, off1), (2, off2)):
        rows = np.arange(offset, len(diag))
        a[rows, rows - offset] = a[rows - offset, rows] = off[offset:]
    return a


def _links(n_a: np.ndarray, n_b: np.ndarray, top: int):
    """(link, up n_b, root) of each term of K = k_a a† + k_b b on the spin-down
    states (n_a, n_b), k_a's first: a† takes a down state to the up state
    (n_a + 1, n_b) while n_a + n_b < top, with root sqrt(n_a + 1), and b
    takes it to the up state (n_a, n_b - 1) while n_b >= 1, with root
    sqrt(n_b). `link` marks the down states a term moves."""
    yield n_a + n_b < top, n_b, np.sqrt(n_a + 1.0)
    yield n_b >= 1, n_b - 1, np.sqrt(n_b.astype(float))


def pair_spectrum_grid(space: FockSpace, terms: tuple[float, float, float],
                       js=None) -> np.ndarray:
    """The ascending spectrum, in units of m c^2, of a `paired` config over
    the J in `js` (every J-sector by default), from the whole interior grid:
    each spin-down state linked by the one coupling (`_links`) pairs with its
    spin-up partner at +-hypot(1, kappa), every other state is a single at +1
    (up) or -1 (down)."""
    top = space.top
    k_a, k_b, _ = terms
    # every interior (n_a, n_b), n_a + n_b <= top
    quanta = np.arange(top + 1)
    n_a, n_b = np.nonzero(np.add.outer(quanta, quanta) <= top)
    # the one coupling's term
    link, _, root = next(itertools.compress(_links(n_a, n_b, top), (k_a, k_b)))
    ups = downs = len(n_a)
    if js is not None:  # J of |n_a, n_b, up> is n_a - n_b, and of down one more
        down = np.isin(n_a - n_b + 1, js)
        ups, downs = np.count_nonzero(np.isin(n_a - n_b, js)), np.count_nonzero(down)
        link &= down
    levels = np.hypot(1.0, (k_a or k_b) * root[link])
    singles = np.repeat([1.0, -1.0], [ups - len(levels), downs - len(levels)])
    return np.sort(np.concatenate([-levels, levels, singles]))
