"""The J-sector blocks of the Hamiltonian and their spectra.

The unperturbed Hamiltonian couples the two spinor components through the
dynamical boson mode only,

    H0 = [[ m c^2,              2 c p_z + i m wt c zbar ],
          [ adjoint(from above), -m c^2                 ]]

with wt the reduced frequency. The lower-left block is fixed to be the exact
adjoint of the upper-right one; together with the commutator conventions of
CONVENTIONS.md this pins Hermiticity and the closed-form level spectrum of
`params.landau_level`.

The minimal-length correction enters as H' = -a c p^2 on both spinor
components. In the ladder representation p^2 carries an overall m |wt| hbar
prefactor, so H' (and every first-order shift) vanishes identically at the
critical field wt = 0.

Below `ModelParams` everything is in units of m c^2: off the critical field
the blocks depend only on lam = hbar wt / (m c^2) and alpha = a m c, and
energies are formed only where a result is reported.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .errors import UsageError
from .fock import FockSpace, stack_configs
from .numerics import eigvalsh
# perfbench/verify.py reads the closed-form levels from here too
from .params import ModelParams, landau_level, spinor_level


def _diagonal_line(d: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_a, n_b) with n_a - n_b = d and n_a + n_b <= top, ascending in n_b."""
    n_b = np.arange(max(0, -d), (top - d) // 2 + 1)
    return n_b + d, n_b


def _couplings(p: ModelParams) -> tuple[float, float]:
    """Coefficients (k_a, k_b), in units of m c^2, of the collapsed coupling
    K = k_a a† + k_b b.

    K is the upper-right (down -> up) spinor block of H0, taken in the
    i^{n_b}-phased basis, where b acts as i b: the -2 i c sqrt(m |wt| hbar) b
    of wt < 0 and the -i c hbar / l b of wt = 0 become real. Structurally
    vanishing coefficients are exact zeros: transcribing
    2 c p_z + i m wt c zbar leaves a roundoff residue that can derail LAPACK.
    """
    wt = p.omega_tilde
    if wt != 0.0:
        k = 2.0 * math.sqrt(abs(p.lam))
        return (k, 0.0) if wt > 0.0 else (0.0, k)
    if p.omega == 0.0:
        return 0.0, 0.0
    # critical field: only the kinetic 2 c p_z term survives, c hbar / l in the
    # bare frame of length l = sqrt(hbar / (m omega)); sqrt(hbar omega / (m c^2))
    # is taken one factor at a time, as hbar / (m omega) can leave the float range
    k = math.sqrt(p.hbar) * math.sqrt(p.omega) / (math.sqrt(p.mass) * p.light_speed)
    return k, k


def sector_terms(
    space: FockSpace, p: ModelParams, alpha: float
) -> tuple[float, float, float]:
    """(k_a, k_b, deform) of one config's J-sector blocks, in units of m c^2,
    at the deformation strength alpha = a m c.

    deform = -alpha |lam| weighs the deformation pattern. With T =
    `space.top`, no block entry exceeds the coupling max(k_a, k_b) sqrt(T + 1)
    off the diagonal or 1 + |deform| (T + 1) on it; raises UsageError when a
    bound is not finite.
    """
    deform = -alpha * abs(p.lam)
    k_a, k_b = _couplings(p)
    for bound, message in (
        (max(k_a, k_b) * math.sqrt(space.top + 1),
         "derived oscillator coupling is not finite for these inputs"),
        (1.0 + abs(deform) * (space.top + 1),
         "sector diagonal 1 + |alpha lam| (cutoff - 1) is not finite for these "
         f"inputs at alpha = a m c = {alpha!r}"),
    ):
        if not math.isfinite(bound):
            raise UsageError(f"{message}, got {bound} m c^2")
    return k_a, k_b, deform


def paired(terms: tuple[float, float, float]) -> bool:
    """Whether the J-sector blocks of a config with these `sector_terms` are a
    direct sum of 2x2 and 1x1 blocks (`pair_spectrum`): no deformation, and
    one coupling, as at a = 0 off the critical field."""
    k_a, k_b, deform = terms
    return deform == 0.0 and (k_a == 0.0) != (k_b == 0.0)


def _links(n_a: np.ndarray, n_b: np.ndarray, top: int) -> Iterator[tuple]:
    """(link, up n_b, root) of each term of K = k_a a† + k_b b on the spin-down
    states (n_a, n_b), k_a's first: a† takes a down state to up (n_a + 1, n_b)
    while that stays interior, with root sqrt(n_a + 1), and b takes it to up
    (n_a, n_b - 1), with root sqrt(n_b). `link` marks the down states a term
    moves; each term is computed as it is drawn."""
    yield n_a + n_b < top, n_b, np.sqrt(n_a + 1.0)
    yield n_b >= 1, n_b - 1, np.sqrt(n_b.astype(float))


def pair_spectrum(
    space: FockSpace,
    terms: tuple[float, float, float],
    js: Sequence[int] | None = None,
) -> np.ndarray:
    """The ascending spectrum, in units of m c^2, of a `paired` config over
    the J in `js` (every J-sector by default), in closed form.

    With one coupling and no deformation, K (`_links`) couples each spin-down
    state to at most one spin-up state, and no two to the same one; the pair
    lies in J-sector n_a - n_b + 1 of its down state. It is the block
    [[1, kappa], [kappa, -1]], kappa = k_a sqrt(n_a + 1) or k_b sqrt(n_b)
    (the same float operations as `build_sectors`), with eigenvalues
    +-hypot(1, kappa). Every other state is a 1x1 block: a spin-up state at
    1 or a spin-down state at -1.
    """
    top = space.top
    k_a, k_b, _ = terms
    # every interior (n_a, n_b), n_a + n_b <= top
    quanta = np.arange(top + 1)
    n_a, n_b = np.nonzero(np.add.outer(quanta, quanta) <= top)
    # the one coupling's term; k_a's is dropped before k_b's is computed
    link, to_b, root = next(itertools.compress(_links(n_a, n_b, top), (k_a, k_b)))
    ups = downs = len(n_a)
    if js is not None:  # J of |n_a, n_b, up> is n_a - n_b, and of down one more
        down = np.isin(n_a - n_b + 1, js)
        ups, downs = np.count_nonzero(np.isin(n_a - n_b, js)), np.count_nonzero(down)
        link &= down
    levels = np.hypot(1.0, (k_a or k_b) * root[link])
    del n_a, n_b, link, to_b, root  # the grid is not held with the spectrum
    singles = np.repeat([1.0, -1.0], [ups - len(levels), downs - len(levels)])
    return np.sort(np.concatenate([-levels, levels, singles]))


def build_sectors(
    space: FockSpace,
    terms: Sequence[tuple[float, float, float]],
    js: Iterable[int] | None = None,
) -> Iterator[np.ndarray]:
    """The interior blocks of H0 + H', in units of m c^2, for each of
    `terms`, one stack per J = n_a - n_b + [spin down] in `js` (every
    J-sector, ascending, by default); row k of every stack is the block of
    terms[k].

    Each of `terms` is the (k_a, k_b, deform) of one config
    (`sector_terms`), checked there. Built from closed-form ladder matrix
    elements on the interior n_a + n_b <= `space.top` only; the full space
    is never allocated. The stacks are generated one at a time, in the order
    of `js`, so a caller that consumes them in turn holds one stack at a
    time. Each block runs over the spin-up states, then the spin-down
    states, each ascending in n_b; it is real symmetric float64 in the basis
    where |n_a, n_b, s> carries the phase i^{n_b} (CONVENTIONS.md, Sectors),
    and holds

      diagonal   ± 1 - alpha |lam| (n_a + n_b + 1)
      pair       <n_a+1, n_b+1| H' |n_a, n_b> = -alpha |lam| sqrt((n_a+1)(n_b+1))
      coupling   K = k_a a† + k_b b from spin down to spin up (`_couplings`, `_links`)

    Per J the index pattern is built once for every row, and row k is
    h_k + deform_k D, with h_k the ± 1 and coupling part and D the
    deformation pattern (n_a + n_b + 1 and the pair root): the same float
    operations as building each block alone. D is not added when every
    deform is zero.
    """
    top = space.top
    # one (row,) column per term
    columns = np.array(terms, dtype=float).reshape(-1, 3).T
    if js is None:
        js = range(-top, top + 2)
    return (_sector(j, top, *columns) for j in js)


def _sector(j: int, top: int, k_a: np.ndarray, k_b: np.ndarray,
            deform: np.ndarray) -> np.ndarray:
    up_a, up_b = _diagonal_line(j, top)
    dn_a, dn_b = _diagonal_line(j - 1, top)
    u, v = len(up_b), len(dn_b)
    n = u + v
    stack = np.zeros((len(k_a), n, n))
    # every element is set through its flat index i n + k
    flat = stack.reshape(len(k_a), n * n)
    flat[:, : u * (n + 1) : n + 1] = 1.0
    flat[:, u * (n + 1) :: n + 1] = -1.0
    # up positions are n_b - up_b[0]; down state q sits at u + q
    first_b = max(0, -j)
    for (link, to_b, root), k in zip(_links(dn_a, dn_b, top), (k_a, k_b)):
        if k.any():
            q = np.nonzero(link)[0]
            up = to_b[q] - first_b
            coeff = k[:, np.newaxis] * root[q]
            flat[:, up * n + u + q] = coeff
            flat[:, (u + q) * n + up] = coeff
    if deform.any():
        # the deformation pattern: n_a + n_b + 1 on the diagonal and the pair
        # root beside it, added in place along the three diagonals
        n_a, n_b = np.concatenate([up_a, dn_a]), np.concatenate([up_b, dn_b])
        pair = np.sqrt((n_a[:-1] + 1.0) * (n_b[:-1] + 1.0))
        if u and v:
            pair[u - 1] = 0.0  # it does not flip the spin: last up, first down
        weight = deform[:, np.newaxis]
        flat[:, :: n + 1] += weight * (n_a + n_b + 1)
        flat[:, 1 :: n + 1] += weight * pair
        flat[:, n :: n + 1] += weight * pair
    return stack


def interior_spectrum(
    space: FockSpace,
    terms: Sequence[tuple[float, float, float]],
    js: Iterable[int] | None = None,
) -> np.ndarray:
    """Ascending eigenvalues, in units of m c^2, of the interior-projected
    full Hamiltonian for each of `terms`, the `sector_terms` of one config
    each: the one solver entry, and its route table.

    H0 and H' both conserve J, so row k is the sorted union of the J-sector
    spectra of terms[k], over every J-sector or over those in `js`. Each
    distinct terms is solved once, and its row copied to every config that
    shares it. `paired` terms, at a = 0 off the critical field, are closed
    form (`pair_spectrum`), with no eigensolver call. All others go through
    `build_sectors` in consecutive chunks of `fock.stack_configs`, one pass
    over the J-sectors each, and each J-stack is solved in one `eigvalsh`
    call as it is generated, so one stack of bounded bytes is held at a time.
    """
    if js is not None:
        js = list(js)
    # zeros compare equal, and h + (-0.0) D and h + 0.0 D are the same block
    distinct = list(dict.fromkeys(terms))
    spectra = {t: pair_spectrum(space, t, js) for t in distinct if paired(t)}
    dense = [t for t in distinct if not paired(t)]
    size = stack_configs(space.cutoff)
    for i in range(0, len(dense), size):
        chunk = dense[i:i + size]
        w = np.concatenate([eigvalsh(stack) for stack in build_sectors(space, chunk, js)],
                           axis=-1)
        spectra.update(zip(chunk, np.sort(w, axis=-1)))
    return np.array([spectra[t] for t in terms])
