"""The J-sector structure of the Hamiltonian and its interior spectra.

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

This module loads no numpy: a config's block terms and a closed-form
(`paired`) spectrum are pure Python, and only the dense branch of
`interior_spectrum` imports the block builder (`sectors`) and the
eigensolver (`numerics`), numpy with them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence

from .errors import UsageError
from .fock import FockSpace, stack_configs
# perfbench/verify.py reads the closed-form levels from here too
from .params import ModelParams, landau_level, spinor_level


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
    direct sum of 2x2 and 1x1 blocks (`pair_spectrum`): no deformation and at
    most one coupling, as at a = 0 off the critical field or at omega = B = 0."""
    k_a, k_b, deform = terms
    return deform == 0.0 and (k_a == 0.0 or k_b == 0.0)


def pair_spectrum(
    space: FockSpace, terms: tuple[float, float, float], js: Sequence[int]
) -> list[float]:
    """The ascending spectrum, in units of m c^2, of a `paired` config over
    the J-sectors `js` (ascending, distinct, of the interior), in closed form.

    With at most one coupling and no deformation, K = k_a a† + k_b b couples
    each spin-down state to at most one spin-up state, and no two to the
    same one; the pair lies in J-sector n_a - n_b + 1 of its down state. It
    is the block [[1, kappa], [kappa, -1]], kappa = k sqrt(r) with r = n_a + 1
    for a† (down states with n_a + n_b < T) and r = n_b for b (n_b >= 1), the
    same float operations as `sectors.build_sectors`, and its eigenvalues
    are +-hypot(1, kappa), taken as abs(complex(1, kappa)), numpy's hypot
    bit for bit. Every other state is a 1x1 block: a spin-up state at 1 or a
    spin-down state at -1. With no coupling, kappa = 0 and a pair is +-1.

    Each root r = 1 .. T is one run of equal pairs. Its down states have J
    from 2r - T to r (a†) or from 1 - r to T - 2r + 1 (b), one state per J,
    so a run counts the J of `js` in that range. The spectrum repeats each
    run's two floats, so it holds about 8 bytes per eigenvalue.
    """
    top = space.top
    k_a, k_b, _ = terms
    # J of |n_a, n_b, up> is n_a - n_b, and of down one more
    ups, downs = (sum(len(space.line(j - s)) for j in js) for s in (0, 1))
    span = (lambda r: (2 * r - top, r)) if k_a else (lambda r: (1 - r, top - 2 * r + 1))
    runs = []
    for r in range(1, top + 1):
        lo, hi = span(r)
        count = bisect_right(js, hi) - bisect_left(js, lo)
        if count:
            runs.append((abs(complex(1.0, (k_a or k_b) * math.sqrt(r))), count))
    runs.sort()
    pairs = sum(count for _, count in runs)
    spectrum = []
    for level, count in reversed(runs):
        spectrum += [-level] * count
    spectrum += [-1.0] * (downs - pairs) + [1.0] * (ups - pairs)
    for level, count in runs:
        spectrum += [level] * count
    return spectrum


def interior_spectrum(
    space: FockSpace,
    terms: Sequence[tuple[float, float, float]],
    js: Iterable[int] | None = None,
) -> list[list[float]]:
    """Ascending eigenvalues, in units of m c^2, of the interior-projected
    full Hamiltonian for each of `terms`, the `sector_terms` of one config
    each: the one solver entry, and its route table. Each row is a list of
    floats.

    H0 and H' both conserve J, so row k is the sorted union of the J-sector
    spectra of terms[k], over every J-sector or over the distinct J of
    `space.sectors` in `js`, ascending: the one list both routes take. Each
    distinct terms is solved once, and its row shared by every config that
    has it. `paired` terms are closed form (`pair_spectrum`), with no
    eigensolver call and no numpy. All others go through
    `sectors.build_sectors` in consecutive chunks of `fock.stack_configs`,
    one pass over the J-sectors each, and each J-stack is solved in one
    `numerics.eigvalsh` call as it is generated, so one stack of bounded
    bytes is held at a time.
    """
    sectors = space.sectors
    js = sectors if js is None else sorted({j for j in js if j in sectors})
    if not js:
        return [[] for _ in terms]
    # zeros compare equal, and h + (-0.0) D and h + 0.0 D are the same block
    distinct = list(dict.fromkeys(terms))
    spectra = {t: pair_spectrum(space, t, js) for t in distinct if paired(t)}
    dense = [t for t in distinct if not paired(t)]
    if dense:
        import numpy as np

        from .numerics import eigvalsh
        from .sectors import build_sectors

        size = stack_configs(space.cutoff)
        for i in range(0, len(dense), size):
            chunk = dense[i:i + size]
            w = np.concatenate([eigvalsh(stack) for stack in build_sectors(space, chunk, js)],
                               axis=-1)
            spectra.update(zip(chunk, np.sort(w, axis=-1).tolist()))
    return [spectra[t] for t in terms]
