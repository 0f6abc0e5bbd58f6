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

This module loads no numpy: a config's block terms, a closed-form
(`paired`) spectrum as runs of equal eigenvalues and the J-band kernel,
which gives the oracle its a = 0 row and its eigenvalues one at a time
(`SectorBand`) and the critical field its window counts (`window_count`),
are pure Python. `SectorBand` is the one statement of a J-block's entries.
This module alone picks the route of an a = 0 spectrum from its block
terms: `level_windows` for the level rows, and `interior_spectrum` for a
scan's whole spectra. Only the dense branch of `interior_spectrum`, which
serves the scan alone, loads numpy: `sector_stacks` scatters the band's
entries into dense stacks, and the eigensolver (`numerics`) solves them.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence

from .errors import ComputationError, UsageError
from .fock import FockSpace
# perfbench/verify.py reads the closed-form levels from here too
from .params import ModelParams, landau_level, residual_bound, spinor_level


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


def pair_spectrum(space: FockSpace,
                  terms: tuple[float, float, float]) -> list[tuple[float, int]]:
    """The interior spectrum, in units of m c^2, of a `paired` config, in
    closed form, as 2T + 2 runs (eigenvalue, count), ascending in the
    eigenvalue, T = `space.top`.

    With at most one coupling and no deformation, K = k_a a† + k_b b couples
    each spin-down state to at most one spin-up state, and no two to the
    same one. The pair is the block [[1, kappa], [kappa, -1]], kappa = k
    sqrt(r) with r = n_a + 1 for a† (down states with n_a + n_b < T) and
    r = n_b for b (n_b >= 1), the same float operations as
    `SectorBand.coupling`, and its eigenvalues are +-hypot(1, kappa), taken
    as abs(complex(1, kappa)), numpy's hypot bit for bit. Root r = 1 .. T
    gives a run of T + 1 - r pairs, and the T + 1 states of each spin that
    no coupling reaches are a run of singles at +-1. With no coupling, kappa
    = 0 and a pair is +-1, so neighbouring runs can hold equal eigenvalues.
    """
    top = space.top
    k_a, k_b, _ = terms
    runs = sorted((abs(complex(1.0, (k_a or k_b) * math.sqrt(r))), top + 1 - r)
                  for r in range(1, top + 1))
    return [*((-level, count) for level, count in reversed(runs)),
            (-1.0, top + 1), (1.0, top + 1), *runs]


EPS = sys.float_info.epsilon
# `window_count` takes a zero pivot as -PIVMIN on a band scaled below 1: the
# pivot floor of LAPACK's dstebz, PIVMIN times the square of the largest
# off-diagonal entry (at least 1).
PIVMIN = sys.float_info.min
# The narrowest window, in pivot floors of a band scaled below 1, that
# `window_count` resolves: its counts miss states at about half a floor.
WINDOW_FLOORS = 1024.0
# Inverse-iteration steps, with Rayleigh-quotient shifts from the a = 0
# eigenvector, within which a residual must hold.
STEPS = 3


def _count(band: tuple[list, list, list], sigma: float, pivmin: float) -> int:
    """How many eigenvalues of a band lie below sigma, or at it: the
    negative pivots of the LDL^T factors of A - sigma I, without pivoting
    (Sylvester's law of inertia), a pivot within pivmin of zero taken as
    -pivmin, so an exact band counts an eigenvalue exactly at sigma.

    `band` is (diagonal, entries (i, i - 1), entries (i, i - 2)), each
    list as long as the diagonal, its first entries zero. Row i of the
    factors needs only rows i - 1 and i - 2: L[i, i-1] d[i-1] = w and
    L[i, i-2] d[i-2] = c, so each count is O(dim), with no division by zero.
    """
    below, d1, d2, l1 = 0, 1.0, 1.0, 0.0
    for a, b, c in zip(*band):
        w = b - c * l1  # l1 of row i - 1 here, L[i - 1, i - 2]
        l1 = w / d1
        d = a - sigma - w * l1 - c * (c / d2)
        if abs(d) <= pivmin:
            d = -pivmin
        if d < 0.0:
            below += 1
        d1, d2 = d, d1
    return below


def _inverse_step(band: tuple[list, list, list], sigma: float, pivmin: float,
                  v: list[float]) -> list[float] | None:
    """(A - sigma I)^-1 v through the LDL^T factors of `_count`, scaled so
    its largest entry is 1 in magnitude; None where that is not finite."""
    diag, off1, off2 = band
    n = len(diag)
    # L[i, i-1] and L[i, i-2], two zeros beyond the last row
    l1s, l2s, y = [0.0] * (n + 2), [0.0] * (n + 2), [0.0] * n
    d1 = d2 = 1.0
    l1 = z1 = z2 = 0.0
    for i in range(n):  # factor, and solve L z = v as each row is factored
        c = off2[i]
        w = off1[i] - c * l1
        l2, l1 = c / d2, w / d1
        d = diag[i] - sigma - w * l1 - c * l2
        if abs(d) <= pivmin:
            d = -pivmin
        z1, z2 = v[i] - l1 * z1 - l2 * z2, z1
        l1s[i], l2s[i], y[i] = l1, l2, z1 / d
        d1, d2 = d, d1
    x1 = x2 = 0.0
    for i in range(n - 1, -1, -1):  # L^T x = D^-1 z
        x1, x2 = y[i] - l1s[i + 1] * x1 - l2s[i + 2] * x2, x1
        y[i] = x1
    top = max(map(abs, y))
    if not 0.0 < top < math.inf:
        return None
    return [x / top for x in y]


def _residual(band: tuple[list, list, list], v: list[float]) -> tuple[float, float]:
    """(theta, ||(A - theta I) v|| / ||v||) of a vector whose largest entry
    is 1 in magnitude, theta its Rayleigh quotient, a ratio of exactly
    rounded sums (`math.fsum`): the same bits on every platform."""
    diag, off1, off2 = band
    pad = [0.0, 0.0]
    w = [*pad, *v, *pad]
    # row i: a v_i + b_i v_(i-1) + b_(i+1) v_(i+1) + c_i v_(i-2) + c_(i+2) v_(i+2)
    av = [a * x + b * xb + bn * xn + c * xc + cn * xcn for a, x, b, xb, bn, xn, c, xc, cn, xcn
          in zip(diag, v, off1, w[1:], [*off1[1:], 0.0], w[3:], off2, w,
                 [*off2[2:], *pad], w[4:])]
    norm = math.fsum(x * x for x in v)
    theta = math.fsum(x * y for x, y in zip(v, av)) / norm
    return theta, math.hypot(*(y - theta * x for x, y in zip(v, av))) / math.sqrt(norm)


class SectorBand:
    """The block of J-sector j for one config's couplings (k_a, k_b), its
    states ordered by N = n_a + n_b: a band of bandwidth 2, with the
    deformation pattern built once and scaled for each strength.

    The up states of the line n_a - n_b = j have N = 2 n_b + j and the down
    states of line j - 1 have N = 2 n_b + j - 1, so every N from the
    lowest to T holds one state and up and down alternate. A coupling joins
    a down state to the up state one quantum away: a† (k_a, root
    sqrt(n_a + 1)) to N + 1 and b (k_b, root sqrt(n_b)) to N - 1, so it lies
    beside the diagonal. The pair term of the deformation joins (n_a, n_b)
    to (n_a + 1, n_b + 1) on one spin, two rows away. The entries, which
    `sector_stacks` scatters into its dense stacks, are

      diagonal   ± 1 + deform (N + 1)                 `sign`, `pattern`
      (i, i-1)   k_a sqrt(n_a + 1) or k_b sqrt(n_b)   `coupling`
      (i, i-2)   deform sqrt((n_a + 1) (n_b + 1))     `pair`

    `cells` lists the (n_a, n_b, spin up) of the rows. With at most one
    coupling the a = 0 block is a direct sum of 2x2 pairs and 1x1 singles:
    `levels` holds its eigenpairs, ascending, each vector as (first row,
    its one or two nonzero entries), and their eigenvalues are the
    J-sector's a = 0 row, in which the oracle picks its index; with both
    couplings (the critical field) it is empty.
    """

    def __init__(self, space: FockSpace, couplings: tuple[float, float], j: int):
        k_a, k_b = couplings
        self.j = j
        cells = sorted((2 * n_b + d, n_b + d, n_b, d == j)
                       for d in (j, j - 1) for n_b in space.line(d))
        self.cells = [cell[1:] for cell in cells]
        self.sign = [1.0 if up else -1.0 for _, _, up in self.cells]
        self.pattern = [n + 1 for n, *_ in cells]
        n = len(cells)
        # the lower state's roots: a† from a down state, b to an up one
        self.coupling = [0.0, *(
            k_a * math.sqrt(m_a + 1.0) if up else k_b * math.sqrt(n_b)
            for (m_a, _, _), (_, n_b, up) in zip(self.cells, self.cells[1:]))]
        self.pair = [0.0, 0.0, *(math.sqrt((m_a + 1.0) * (m_b + 1.0))
                                 for m_a, m_b, _ in self.cells[:-2])][:n]
        self.levels = [] if k_a and k_b else self._pair_levels()

    def _pair_levels(self) -> list[tuple[float, int, tuple[float, ...]]]:
        """The eigenpairs of the a = 0 block, ascending: +-hypot(1, kappa)
        for each coupled pair, as `pair_spectrum` forms it, and the sign of
        every other state, each vector's largest entry 1 in magnitude."""
        levels, single = [], [True] * len(self.sign)
        for i, kappa in enumerate(self.coupling):
            if kappa:
                single[i - 1] = single[i] = False
                level, (s, t) = abs(complex(1.0, kappa)), self.sign[i - 1:i + 1]
                for e in (-level, level):
                    # the larger of the two forms of the pair's eigenvector
                    x, y = (e - t, kappa) if e * s > 0.0 else (kappa, e - s)
                    top = max(abs(x), abs(y))
                    levels.append((e, i - 1, (x / top, y / top)))
        levels += [(s, i, (1.0,)) for i, s in enumerate(self.sign) if single[i]]
        levels.sort(key=lambda level: level[0])
        return levels

    def entries(self, deform: float) -> tuple[list, list, list]:
        """(diagonal, entries (i, i - 1), entries (i, i - 2)) at deform."""
        return ([s + deform * q for s, q in zip(self.sign, self.pattern)], self.coupling,
                [deform * r for r in self.pair])

    def eigenvalue(self, deform: float, k: int) -> float:
        """The eigenvalue at deform, in units of m c^2, of the eigenpair
        that continues a = 0 eigenpair k (`levels`, from 0, ascending),
        certified, or a UsageError where the band cannot follow it.

        Up to STEPS steps of inverse iteration, each shifted to the last
        Rayleigh quotient theta, start from a = 0 eigenvector k. theta
        stands where its residual is within `numerics.eigh`'s bound
        (`params.residual_bound`) and its vector v keeps cos^2 > 1/2 with
        a = 0 eigenvector u. Eigenvectors are orthonormal, so their squared
        cosines with u sum to 1 and at most one eigenpair passes: theta
        follows the state whatever its index at deform, also where another
        state crosses it. ComputationError where the entries leave no
        headroom in the float range.
        """
        band = self.entries(deform)
        n = len(band[0])
        diag, off1, off2 = (max(map(abs, entries)) for entries in band)
        # ||A||_max, and a Gershgorin bound of ||A||_2
        largest, reach = max(diag, off1, off2), diag + 2.0 * (off1 + off2)
        if not math.isfinite(4.0 * n * reach):
            raise ComputationError(f"J-sector {self.j}: band entries of {largest!r} m c^2 "
                                   "leave no headroom in the float range")
        # a solve takes a pivot within roundoff of zero as that roundoff
        floor = n * EPS * reach
        _, first, u = self.levels[k]
        v = [0.0] * n
        v[first:first + len(u)] = u
        theta, residual = _residual(band, v)
        for _ in range(STEPS):
            step = _inverse_step(band, theta, floor, v)
            if step is None:
                break
            v = step
            theta, residual = _residual(band, v)
            if residual <= floor:
                break
        # the squared cosine between v and u, each largest entry 1
        cos2 = math.fsum(x * y for x, y in zip(u, v[first:])) ** 2 / (
            math.fsum(x * x for x in u) * math.fsum(x * x for x in v))
        if residual <= residual_bound(largest, n) and cos2 > 0.5:
            return theta
        raise UsageError(f"oracle stencil step cannot follow eigenvalue {k} of J-sector "
                         f"{self.j} to deform = -alpha |lam| = {deform!r} m c^2")


def _sum_error(a: float, b: float) -> float:
    """a + b - fl(a + b), exact in round-to-nearest (Knuth's TwoSum); nan
    where the sum overflows."""
    total = a + b
    part = total - a
    return (a - (total - part)) + (b - part)


def window_edges(energy: float, window: float) -> tuple[float, float]:
    """The window's exact float edges: the smallest float at or above
    energy - window and the largest at or below energy + window, so a float
    x lies between them exactly where |x - energy| <= window. Each is the
    rounded sum, moved one float inwards where its error (`_sum_error`) says
    that rounding took it outwards; an edge beyond the float range stays
    infinite.
    """
    low, high = energy - window, energy + window
    if _sum_error(energy, -window) > 0.0:  # rounded down, below energy - window
        low = math.nextafter(low, math.inf)
    if _sum_error(energy, window) < 0.0:  # rounded up, beyond energy + window
        high = math.nextafter(high, -math.inf)
    return low, high


def nearest_level(runs: Sequence[tuple[float, int]], energy: float,
                  window: float) -> tuple[int, int]:
    """(the index of the run nearest `energy`, how many eigenvalues the runs
    within `window` of it hold) in runs (eigenvalue, count), ascending in
    the eigenvalue, neither empty nor holding nan.

    A run lies within the window where |x - energy| <= window exactly,
    between the window's float edges (`window_edges`), which two bisections
    find. Beyond the float range, between energies of opposite sign near
    it, a distance is inf, as far as any distance gets. Distances fall
    towards `energy` from either side, so a bisection finds the nearest run
    on each side. Of equal distances the lowest run is nearest, as the
    first minimum of the distances would be.
    """
    low, high = window_edges(energy, window)
    lo = bisect_left(runs, low, key=lambda run: run[0])
    hi = bisect_right(runs, high, key=lambda run: run[0])
    i = bisect_left(runs, energy, key=lambda run: run[0])  # runs[:i] below energy
    if i and (i == len(runs) or energy - runs[i - 1][0] <= runs[i][0] - energy):
        i -= 1  # the neighbour below, then the lowest as far as it
        while i and energy - runs[i - 1][0] == energy - runs[i][0]:
            i -= 1
    return i, sum(count for _, count in runs[lo:hi])


def window_count(bands: Iterable[tuple[list, list, list]], energy: float,
                 window: float) -> int:
    """How many eigenvalues x of the bands lie within the window,
    |x - energy| <= window exactly: per band, the inertia count (`_count`)
    at the window's upper float edge less the one just below its lower
    edge (`window_edges`), each edge lowered by the pivot floor, O(dim)
    each, exact on an exact band.

    Each band and both ends are first scaled by the power of two that takes
    its largest off-diagonal entry below 1. That is exact and leaves every
    count as it is, but it keeps the pivot floor at the smallest normal
    float: unscaled, the floor grows as the square of the couplings, and
    at couplings above about 1e148 it swallows pivots of the window's width
    (1e-12), so a count misses states inside the window. Scaled, a count
    resolves the window while it stays WINDOW_FLOORS pivot floors wide,
    window 2^-e >= WINDOW_FLOORS PIVMIN for a largest coupling below 2^e;
    a narrower one is a UsageError: couplings from 2^982, about 4e295 m c^2,
    at the default window of 1e-9, and from 2^972, about 4e292 m c^2, at
    the noise floor of 1e-12.
    """
    low, above = window_edges(energy, window)
    below = math.nextafter(low, -math.inf)
    total = 0
    for band in bands:
        largest = max(map(abs, [*band[1], *band[2]]))
        scale = 2.0 ** -max(0, math.frexp(largest)[1])
        if window * scale < WINDOW_FLOORS * PIVMIN:
            raise UsageError(f"window {window!r} m c^2 is below what the inertia counts "
                             f"resolve at couplings up to {largest!r} m c^2")
        # scaled, every off-diagonal entry is below 1, so the floor is PIVMIN;
        # a pivot within it counts as negative, which would take in an
        # eigenvalue up to PIVMIN above sigma, so each sigma is lowered by it
        band = tuple([x * scale for x in entries] for entries in band)
        total += (_count(band, above * scale - PIVMIN, PIVMIN)
                  - _count(band, below * scale - PIVMIN, PIVMIN))
    return total


def level_windows(space: FockSpace, terms: tuple[float, float, float],
                  levels: Sequence[float], window: float) -> list[tuple[float, int]]:
    """(the eigenvalue nearest each of `levels`, how many lie within `window`
    of it), in units of m c^2, in the interior spectrum of an a = 0 config
    with these `sector_terms`: the level rows' route table.

    A `paired` config's runs (`pair_spectrum`) give both (`nearest_level`).
    At the critical field with both couplings every level is +-1 m c^2,
    itself an eigenvalue (CONVENTIONS.md, Sectors) and its own nearest one,
    so each distinct level needs only its `window_count` on the J-sectors'
    chains, the bands at no deformation; a count of 0 contradicts that and
    is a ComputationError.
    """
    if paired(terms):
        runs = pair_spectrum(space, terms)
        return [(runs[i][0], count) for i, count
                in (nearest_level(runs, level, window) for level in levels)]
    chains = [SectorBand(space, terms[:2], j).entries(0.0) for j in space.sectors]
    counts = {level: window_count(chains, level, window) for level in dict.fromkeys(levels)}
    for level, count in counts.items():
        if count == 0:
            raise ComputationError(f"no eigenvalue counted within {window!r} m c^2 "
                                   f"of level {level!r} m c^2")
    return [(level, counts[level]) for level in levels]


def sector_stacks(space: FockSpace,
                  terms: Sequence[tuple[float, float, float]]) -> Iterator:
    """The interior blocks of H0 + H', in units of m c^2, for each of `terms`
    (`sector_terms`), as numpy stacks, one per J of `space.sectors`,
    generated one at a time: row k of every stack is the block of terms[k].

    Each stack scatters the entries of J's `SectorBand` at unit couplings,
    whose `coupling` holds the roots, into zeros. Each config's entries are
    formed by `SectorBand.entries`' float operations, vectorized across the
    configs: s + deform q on the diagonal, k root for each coupling (k_a for
    a†, k_b for b) and deform r for each pair. The rows run over the spin-up
    states, then the spin-down ones, each ascending in n_b, not the band's N
    order: LAPACK's last bits depend on the order. The off-diagonal entries
    are added, not assigned, so an a = 0 config's pair entries are +0.0.
    """
    import numpy as np

    k_a, k_b, deform = np.array(terms, dtype=float).reshape(-1, 3).T[:, :, np.newaxis]
    for j in space.sectors:
        band = SectorBand(space, (1.0, 1.0), j)
        up = np.array([cell[2] for cell in band.cells])
        # row[i] is band state i's row: spin up first, each spin in N order
        row = np.empty(len(up), dtype=int)
        row[np.argsort(~up, kind="stable")] = np.arange(len(up))
        stack = np.zeros((len(deform), len(up), len(up)))
        stack[:, row, row] = np.array(band.sign) + deform * np.array(band.pattern)
        for offset, entries in (
                (1, np.where(up[1:], k_a, k_b) * np.array(band.coupling[1:])),
                (2, deform * np.array(band.pair[2:]))):
            lower, upper = row[offset:], row[:-offset]
            stack[:, lower, upper] += entries
            stack[:, upper, lower] += entries
        yield stack


def interior_spectrum(
    space: FockSpace, terms: Sequence[tuple[float, float, float]]
) -> list[list[float]]:
    """Ascending eigenvalues, in units of m c^2, of the interior-projected
    full Hamiltonian for each of `terms`, the `sector_terms` of one config
    each: a scan's whole spectra, one list of floats per row.

    H0 and H' both conserve J, so row k is the sorted union of the J-sector
    spectra of terms[k] over every J-sector. Each distinct terms is solved
    once, and its row shared by every config that has it. `paired` terms
    are closed form, `pair_spectrum`'s runs expanded, with no eigensolver
    call and no numpy. All others go through `sector_stacks` in one pass over the
    J-sectors, and each J-stack is solved in one `numerics.eigvalsh` call as
    it is generated, so one stack is held at a time. The caller bounds its
    bytes: `perturbation.field_scan` passes at most `fock.stack_configs`
    distinct unpaired terms.
    """
    # zeros compare equal, and h + (-0.0) D and h + 0.0 D are the same block
    distinct = list(dict.fromkeys(terms))
    spectra = {t: [level for level, count in pair_spectrum(space, t) for _ in range(count)]
               for t in distinct if paired(t)}
    dense = [t for t in distinct if not paired(t)]
    if dense:
        import numpy as np

        from .numerics import eigvalsh

        w = np.concatenate([eigvalsh(stack) for stack in sector_stacks(space, dense)], axis=-1)
        spectra.update(zip(dense, np.sort(w, axis=-1).tolist()))
    return [spectra[t] for t in terms]
