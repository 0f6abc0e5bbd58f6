"""Property tests: drawn inputs against the invariants of the closed-form paths.

Every draw is derandomized, so a run tests the same examples each time, and
the example counts are bounded to keep the suite fast.
"""

import functools
import itertools
import json
import math
import pathlib
import tempfile
from bisect import bisect_right
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gup_dosc.cli import main, parse_config
from gup_dosc.errors import ComputationError, UsageError
from gup_dosc.fock import FockSpace
from gup_dosc.model import (
    SectorBand,
    _count,
    _scales,
    interior_spectrum,
    nearest_level,
    pair_spectrum,
    paired,
    sector_stacks,
    sector_terms,
    window_count,
)
from gup_dosc.numerics import eigvalsh, norm_max
from gup_dosc.params import (
    BRANCHES,
    CLUSTER_WINDOW,
    DEFAULT_EIGH_TOL,
    NEGATIVE,
    POSITIVE,
    ModelParams,
    abs_level,
)
from gup_dosc.perturbation import (
    REFERENCE_DEGENERATE_BLOCK,
    PTReport,
    _agrees,
    _jacobi_eigh,
    _scan_point,
    critical_field,
    degenerate_shift,
    first_order_shift,
    oracle_check,
    spectral_clusters,
    validation_report,
)
from reference import (
    Space,
    band_matrix,
    build_h0,
    build_h_prime,
    pair_spectrum_grid,
    sector_block,
    sector_indices,
    spectral_clusters_loop,
)

SPACE = FockSpace(cutoff=12)
FLOAT_MAX = np.finfo(float).max

DRAWS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

scales = st.floats(0.1, 10.0)


@st.composite
def model_params(draw):
    """(omega, B, m, c, hbar, |e|, a), B on either side of the critical field."""
    base = ModelParams(omega=draw(scales), mass=draw(scales), light_speed=draw(scales),
                       hbar=draw(scales), charge=draw(scales),
                       gup_a=draw(st.just(0.0) | st.floats(1e-8, 1e-2)))
    ratio = draw(st.floats(0.0, 0.9) | st.floats(1.1, 3.0))  # B / B_c
    return base.with_field(ratio * critical_field(base))


@DRAWS
@given(p=model_params(), n=st.integers(1, 3), branch=st.sampled_from(BRANCHES),
       size=st.integers(1, 5))
# the lowest level's tower, and the n = 2 cluster, at lambda = 0.1
@example(p=ModelParams(omega=0.1, gup_a=1e-4), n=0, branch=POSITIVE, size=5)
@example(p=ModelParams(omega=0.1, gup_a=1e-4), n=2, branch=POSITIVE, size=4)
def test_degenerate_shifts_are_the_sorted_diagonal(p, n, branch, size):
    r = degenerate_shift(SPACE, p, n, range(size), branch)
    matrix, vectors = np.array(r.subspace_matrix), np.array(r.eigenvectors)
    diagonal = matrix.diagonal().real
    assert np.all(matrix[~np.eye(size, dtype=bool)] == 0.0)
    assert r.shifts == sorted(diagonal.tolist())
    # the eigenvectors permute the cluster basis: column i picks the member
    # whose diagonal entry is shift i
    assert np.array_equal(np.abs(vectors), np.abs(vectors) ** 2)
    assert np.array_equal(vectors.sum(axis=0), np.ones(size))
    assert np.array_equal(vectors.sum(axis=1), np.ones(size))
    members = np.argmax(np.abs(vectors), axis=0)
    assert diagonal[members].tolist() == r.shifts
    assert r.shifts_energy == [s * p.shift_unit for s in r.shifts]
    # each shift names the J-sector of its member's dominant basis state
    assert r.sectors == [_dominant_j(r.subspace_basis[m]) for m in members]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(p=model_params(), n=st.integers(0, 3), branch=st.sampled_from(BRANCHES),
       spectators=st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
       t=st.floats(0.5, 2.0))
# the critical field, where every shift and shift energy is zero
@example(p=ModelParams(omega=1.0, b_field=2.0, gup_a=1e-4), n=2, branch=POSITIVE,
         spectators=[0, 1], t=1.5)
def test_shifts_are_linear_in_a(p, n, branch, spectators, t):
    # shifts are in units of a c m hbar wt, so a enters only through the unit
    assume(abs_level(p, n, branch) is not None)
    r = degenerate_shift(SPACE, p, n, spectators, branch)
    scaled = degenerate_shift(SPACE, p.replace(gup_a=t * p.gup_a), n, spectators, branch)
    assert repr(scaled.shifts) == repr(r.shifts)
    assert scaled.sectors == r.sectors
    assert all(math.isclose(e2, t * e1, rel_tol=1e-12, abs_tol=0.0)
               for e1, e2 in zip(r.shifts_energy, scaled.shifts_energy, strict=True))
    if p.omega_tilde == 0.0:
        assert r.shifts_energy == r.shifts == [0.0] * len(spectators)


def _dominant_j(state: dict) -> int:
    """J = n_a - n_b + [spin down] of a basis descriptor's larger component."""
    upper, lower = state["upper_state"], state["lower_state"]
    if upper is not None and abs(state["upper_weight"]) >= abs(complex(*state["lower_weight"])):
        return upper[0] - upper[1]
    return lower[0] - lower[1] + 1


def _band_levels(space: FockSpace, terms, js) -> list[float]:
    """The ascending a = 0 eigenvalues of the `SectorBand`s of the J in
    `js`, for a paired config's terms: its spectrum over those J-sectors."""
    return sorted(level for j in js for level, *_ in SectorBand(space, terms[:2], j).levels)


@DRAWS
@given(p=model_params())
def test_pair_spectra_equal_the_dense_blocks(p):
    # a = 0 off the critical field: the closed-form pairs and singles of
    # `pair_spectrum` against the J-sector blocks they are a sum of
    terms = sector_terms(SPACE, p, 0.0)
    assert paired(terms)
    (row,) = np.array(interior_spectrum(SPACE, [terms]))
    dense = np.sort(np.concatenate([eigvalsh(stack)[0]
                                    for stack in sector_stacks(SPACE, [terms])]))
    assert row.shape == dense.shape
    assert np.max(np.abs(row - dense)) <= 1e-12


@DRAWS
@given(p=model_params())
def test_pair_spectra_are_symmetric_under_negation(p):
    # a = 0 off the critical field: each pair gives +-hypot(1, kappa) m c^2,
    # and the m c^2 and -m c^2 singles are equally many, so E -> -E maps the
    # interior spectrum onto itself exactly
    (row,) = np.array(interior_spectrum(SPACE, [sector_terms(SPACE, p, 0.0)]))
    assert np.array_equal(row, -row[::-1])


@pytest.mark.parametrize("ratio", [0.5, 1.5], ids=["a-dagger", "b"])  # B / B_c
@pytest.mark.parametrize("cutoff", [4, 12, 40, 1000])
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(data=st.data())
def test_pair_spectra_are_the_grid_formula_bit_for_bit(cutoff, ratio, data):
    # the runs of `pair_spectrum`, one per coupling root, against numpy over
    # the whole (n_a, n_b) grid: every J-sector (the route table,
    # `interior_spectrum`), and subsets, the grid's with J beyond the
    # interior and repeats, whose J-sectors of the interior give their a = 0
    # eigenvalues as `SectorBand.levels`
    space = FockSpace(cutoff)
    top = space.top
    base = ModelParams(omega=data.draw(scales), mass=data.draw(scales),
                       light_speed=data.draw(scales), hbar=data.draw(scales))
    terms = sector_terms(space, base.with_field(ratio * critical_field(base)), 0.0)
    assert paired(terms) and (terms[0] == 0.0) == (ratio > 1.0)
    # 2T + 2 runs, ascending, which `interior_spectrum` expands
    runs = pair_spectrum(space, terms)
    assert len(runs) == 2 * top + 2 and all(a <= b for (a, _), (b, _) in zip(runs, runs[1:]))
    subset = data.draw(st.lists(st.integers(-top - 2, top + 3), max_size=6)
                       | st.sampled_from([[-top], [top + 1], [0, 1]]))
    rows = [(None, interior_spectrum(space, [terms])[0]),
            (subset, _band_levels(space, terms, set(subset) & set(space.sectors)))]
    for js, row in rows:
        row, grid = np.array(row), pair_spectrum_grid(space, terms, js)
        # bit for bit: equal as 64-bit integers
        assert row.shape == grid.shape and np.array_equal(row.view(np.int64),
                                                          grid.view(np.int64)), js


# moderate scales, or any from 1e-300 to 1e300
any_scale = scales | st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@DRAWS
@given(omega=st.just(0.0) | any_scale, mass=any_scale, light_speed=any_scale,
       hbar=any_scale, charge=any_scale, gup_a=st.just(0.0) | any_scale,
       ratio=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0))
@example(omega=0.0, mass=1.0, light_speed=1.0, hbar=1.0, charge=1.0, gup_a=1e-4,
         ratio=0.0)
@example(omega=1.0, mass=1.0, light_speed=1.0, hbar=1.0, charge=1.0, gup_a=1e-4,
         ratio=1.0)
def test_a_scan_point_has_at_most_one_distinct_unpaired_config(
        omega, mass, light_speed, hbar, charge, gup_a, ratio):
    # a scan point's configs at alpha = 0 and a m c, at omega = 0, B = 0,
    # the critical field, a = 0 and extreme scales: the a = 0 one is paired
    # off the critical field, and on it the deformation vanishes, so the
    # two are one. field_scan's groups of stack_configs // 2 points thus
    # bound every pass of interior_spectrum
    try:
        base = ModelParams(omega=omega, mass=mass, light_speed=light_speed, hbar=hbar,
                           charge=charge, gup_a=gup_a)
        p = base.with_field(ratio * critical_field(base))
    except UsageError:  # a derived scale beyond the float range
        assume(False)
    point, terms = _scan_point(SPACE, p)
    assert len(terms) == (0 if "error" in point else 2)
    assert len(dict.fromkeys(t for t in terms if not paired(t))) <= 1


@st.composite
def route_configs(draw):
    """(cutoff, params) of either route: model_params off the critical field
    (closed form at a = 0, dense blocks at a != 0), the critical field and
    the uncoupled omega = 0 (dense, and closed form)."""
    p = draw(model_params())
    p = draw(st.sampled_from([p, p.with_field(critical_field(p)),
                              p.replace(omega=0.0, b_field=0.0)]))
    return draw(st.sampled_from([2, 3, 6])), p


def _reference_row(cutoff: int, p: ModelParams, strength: float, js) -> np.ndarray:
    """The ascending spectrum, in units of m c^2, of the J-sectors `js` of the
    dense reference H0 + H' (tests/reference.py) at deformation `strength`."""
    space = Space(cutoff=cutoff, include_spin=True)
    h = (build_h0(space, p) + build_h_prime(space, p, strength=strength)) / p.rest_energy
    blocks = [sector_block(space, h, j) for j in js]
    return np.sort(np.concatenate([[], *(np.linalg.eigvalsh(b) for b in blocks)]))


@DRAWS
@given(config=route_configs(), strengths=st.lists(st.sampled_from([0.0, 1e-3, -2e-3]),
                                                  min_size=1, max_size=3),
       js=st.sets(st.integers(-8, 9), max_size=8))
@example(config=(6, ModelParams(omega=1.0, b_field=1.0)), strengths=[0.0, 1e-3],
         js={-4, 0, 1, 5})
def test_both_routes_equal_the_dense_reference_per_j_sector(config, strengths, js):
    # configs on both routes in one call: each row is the dense reference
    # over every J-sector, and each route's pieces over the J of the
    # interior in `js`, ascending (the J-sectors' `SectorBand.levels` for a
    # paired config, the rows of the J-stacks otherwise), are the reference
    # over those J
    cutoff, p = config
    space = FockSpace(cutoff)
    terms = [sector_terms(space, p, a * p.mass * p.light_speed) for a in strengths]
    js = sorted(js & set(space.sectors))
    rows = interior_spectrum(space, terms)
    assert len(rows) == len(terms)
    stacks = dict(zip(space.sectors, sector_stacks(space, terms)))
    for k, (row, t, a) in enumerate(zip(rows, terms, strengths)):
        pieces = _band_levels(space, t, js) if paired(t) else np.sort(
            np.concatenate([[], *(eigvalsh(stacks[j][k]) for j in js)]))
        for got, sectors in ((row, space.sectors), (pieces, js)):
            reference = _reference_row(cutoff, p, a, sectors)
            assert len(got) == len(reference) and np.all(np.diff(got) >= 0.0)
            scale = np.max(np.abs(reference), initial=1.0)
            assert np.max(np.abs(np.array(got) - reference), initial=0.0) <= 1e-12 * scale


@st.composite
def band_configs(draw):
    """(cutoff, params, alpha): model_params below, at and beyond the
    critical field, with the oracle's strengths among others."""
    p = draw(model_params())
    p = draw(st.sampled_from([p, p.with_field(critical_field(p))]))
    alpha = draw(st.sampled_from([0.0, 1e-5, -2e-5, 1e-3, 0.3]))
    return draw(st.integers(2, 7)), p, alpha


def _reference_h(reference: Space, p: ModelParams, alpha: float) -> np.ndarray:
    """The dense reference H0 + H' at alpha = a m c, in units of m c^2."""
    strength = alpha / (p.mass * p.light_speed)
    return (build_h0(reference, p) + build_h_prime(reference, p, strength=strength)
            ) / p.rest_energy


def _band_blocks(cutoff: int, p: ModelParams, alpha: float):
    """Yield (J, its band, its dense band matrix, the reference
    `sector_block`) for every J-sector, in units of m c^2."""
    space, reference = FockSpace(cutoff), Space(cutoff=cutoff, include_spin=True)
    terms = sector_terms(space, p, alpha)
    h = _reference_h(reference, p, alpha)
    for j in space.sectors:
        band = SectorBand(space, terms[:2], j)
        yield j, band, band_matrix(band.entries(terms[2])), sector_block(reference, h, j)


@DRAWS
@given(config=band_configs())
def test_band_entries_are_the_sector_blocks_in_n_order(config):
    # the dense route scatters the band: in one stack of a = 0 and a != 0
    # configs, each block's rows are those of `sector_indices` (spin up,
    # then spin down, each ascending in n_b), and under the permutation from
    # the band's N = n_a + n_b order its entries are `SectorBand.entries`
    # bit for bit, signed zeros included: added into zeros, an a = 0 pair
    # entry is +0.0 where `entries` holds -0.0 r. Every entry beyond the
    # band's second off-diagonal is zero, and against the dense reference
    # each block agrees to roundoff
    cutoff, p, alpha = config
    space, reference = FockSpace(cutoff), Space(cutoff=cutoff, include_spin=True)
    alphas = (0.0, alpha, 1e-3)
    terms = [sector_terms(space, p, a) for a in alphas]
    hs = [_reference_h(reference, p, a) for a in alphas]
    for j, stack in zip(space.sectors, sector_stacks(space, terms)):
        rows = [reference.unpack(int(i)) for i in sector_indices(reference, j)]
        assert stack.shape == (len(terms), len(rows), len(rows))
        for (k_a, k_b, deform), h, block in zip(terms, hs, stack):
            band = SectorBand(space, (k_a, k_b), j)
            n_total = [n_a + n_b for n_a, n_b, _ in band.cells]
            assert n_total == list(range(n_total[0], n_total[0] + len(n_total)))
            assert [up for *_, up in band.cells] == [(n - j) % 2 == 0 for n in n_total]
            order = [rows.index(cell) for cell in band.cells]
            dense = band_matrix(band.entries(deform)) + 0.0
            assert np.array_equal(block[np.ix_(order, order)].view(np.int64),
                                  dense.view(np.int64)), j
            ref = sector_block(reference, h, j)
            assert norm_max(ref.imag) == 0.0
            scale = max(1.0, norm_max(block))
            assert norm_max(block - ref.real) <= 1e-13 * scale, j


@DRAWS
@given(config=band_configs())
def test_band_eigenvalues_and_counts_equal_the_dense_reference(config):
    # eigenvalue k of the kernel against numpy's of the reference block,
    # within 1e-13 of the block's scale, and the inertia count at and one
    # ulp beside every eigenvalue, and between neighbours: numpy's own
    # eigenvalues are only that accurate, so a count at sigma lies between
    # numpy's counts at sigma -+ that tolerance, and is exact between them
    cutoff, p, alpha = config
    deform = sector_terms(FockSpace(cutoff), p, alpha)[2]
    for j, band, dense, ref in _band_blocks(*config):
        w = np.linalg.eigvalsh(ref.real)
        tol = 1e-13 * max(1.0, norm_max(dense))
        gaps = np.diff(w, prepend=-np.inf, append=np.inf)
        for k, e in enumerate(w):
            try:
                assert abs(band.eigenvalue(deform, k) - e) <= tol, (j, k)
            except ComputationError:
                # refused only where no count can single it out: a repeated
                # eigenvalue, as at the critical field
                assert min(gaps[k], gaps[k + 1]) <= 2.0 * tol, (j, k)
        entries = band.entries(deform)
        pivmin = _scales(entries)[2]
        sigmas = [x for e in w.tolist() for x in (e, math.nextafter(e, -math.inf),
                                                   math.nextafter(e, math.inf))]
        for sigma in sigmas:
            lowest, highest = np.searchsorted(w, [sigma - tol, sigma + tol])
            assert lowest <= _count(entries, sigma, pivmin) <= highest, (j, sigma)
        for k, (below, above) in enumerate(zip(w, w[1:])):
            if above - below > 2.0 * tol:
                assert _count(entries, (below + above) / 2, pivmin) == k + 1
        assert _count(entries, w[0] - 1.0, pivmin) == 0
        assert _count(entries, w[-1] + 1.0, pivmin) == len(w)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(cutoff=st.integers(2, 120), p=model_params())
@example(cutoff=2, p=ModelParams(omega=1.0, b_field=1.0))
@example(cutoff=120, p=ModelParams(omega=1.0, b_field=3.0))
def test_no_j_sector_repeats_an_a0_eigenvalue(cutoff, p):
    # a = 0 off the critical field: within one J-sector each coupling root
    # gives one pair +-hypot(1, kappa), hypot(1, kappa) > 1, and there is at
    # most one +1 and one -1 single, so the oracle's index of the one
    # eigenvalue in its window is exact; the band's a = 0 eigenvalues, the
    # oracle's row, are the grid formula's over [j] bit for bit
    space = FockSpace(cutoff)
    terms = sector_terms(space, p, 0.0)
    assert paired(terms)
    for j in space.sectors:
        # as the band holds them, the order whose positions the oracle indexes
        row = [level for level, *_ in SectorBand(space, terms[:2], j).levels]
        assert all(a < b for a, b in zip(row, row[1:])), j
        grid = pair_spectrum_grid(space, terms, [j]).tolist()
        assert [x.hex() for x in row] == [x.hex() for x in grid], j


@st.composite
def spectra_around_a_level(draw):
    """(ascending spectrum, energy, window): values that tie, lie on the
    window's edge or beside it, at the energy itself, with signed zeros, at
    either end of the float range, where distances overflow, and far from an
    energy of 1e16, where distinct values lie equally far in floats."""
    top = float(FLOAT_MAX)
    energy = draw(st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e16, -1e16, 1e300, -top])
                  | st.floats(-10.0, 10.0))
    window = draw(st.sampled_from([1e-12, 1e-9, 1e-3, 0.5]))
    edges = [energy + k * window for k in (-2, -1, 0, 1, 2)]
    edges += [math.nextafter(x, math.inf) for x in edges]
    edges += [math.nextafter(x, -math.inf) for x in edges]
    values = st.sampled_from(edges + [0.0, -0.0, top, -top]) | st.floats(-10.0, 10.0)
    spectrum = sorted(draw(st.lists(values, min_size=1, max_size=30)))
    return spectrum, energy, window


ROUNDED_EDGE_E = 12164.011089465297  # fl(E - 1e-12) = nextafter(E, -inf)


@DRAWS
@given(drawn=spectra_around_a_level(),
       counts=st.lists(st.integers(1, 4), min_size=30, max_size=30))
# on both edges of the window, equally far on either side, two values
# equally far below 1e16 in floats, and equal neighbouring runs
@example(drawn=([0.5, 1.0, 1.5], 1.0, 0.5), counts=[1, 2, 3])
@example(drawn=([-1.0, 1.0], 0.0, 0.5), counts=[2, 1])
@example(drawn=([-5.0, -4.0], 1e16, 0.5), counts=[1, 3])
@example(drawn=([-1.0, -1.0, 1.0, 1.0], 0.0, 1.0), counts=[1, 2, 2, 1])
# eigenvalues on the window's edges, and one an ulp beyond either edge
@example(drawn=([-1.0, 1.0], -1.5, 0.5), counts=[1, 1])
@example(drawn=([-1.0, 1.0], -0.5, 0.5), counts=[1, 1])
@example(drawn=([-1.0, 1.0], 0.5, 0.5), counts=[1, 1])
@example(drawn=([-1.0, 1.0], 1.5, 0.5), counts=[1, 1])
@example(drawn=([-1.0, 1.0], 0.25, 0.75 - 2.0 ** -53), counts=[1, 1])
@example(drawn=([-1.0, 1.0], -0.25, 0.75 - 2.0 ** -53), counts=[1, 1])
# on a lower edge at 0, within the pivot floor of the count just below it
@example(drawn=([0.0], 0.5, 0.5), counts=[1])
# FOUNDs 76 and 78: just beyond the window, where the rounded distance, or
# the rounded lower edge, lies on the window's edge
@example(drawn=([-0.49999999999999994], -1.0, 0.5), counts=[1])
@example(drawn=([math.nextafter(ROUNDED_EDGE_E, -math.inf)], ROUNDED_EDGE_E, 1e-12),
         counts=[1])
def test_nearest_levels_equal_the_first_minimum_and_the_window_count(drawn, counts):
    # against the distances to each eigenvalue of the expanded list: the run
    # holding the first of the least, and how many lie within the window in
    # exact arithmetic, which the inertia counts on diag(expanded) give too
    spectrum, energy, window = drawn
    runs = list(zip(spectrum, counts))
    expanded = [x for x, count in runs for _ in range(count)]
    with np.errstate(over="ignore"):
        distances = np.abs(np.array(expanded) - energy)
    ends = list(itertools.accumulate(count for _, count in runs))
    inside = sum(math.isfinite(x) and abs(Fraction(x) - Fraction(energy)) <= Fraction(window)
                 for x in expanded)
    assert nearest_level(runs, energy, window) == (
        bisect_right(ends, int(np.argmin(distances))), inside)
    if all(map(math.isfinite, expanded)):
        zeros = [0.0] * len(expanded)
        assert window_count([(expanded, zeros, zeros)], energy, window) == inside


# the phase (-i)^{n_b} that takes an amplitude into the basis of the real
# J-sector blocks, where |n_a, n_b, s> carries i^{n_b} (CONVENTIONS.md, Sectors)
UNPHASE = (1.0, -1j, -1.0, 1j)


def _phased(state: dict) -> dict:
    """{(n_a, n_b, spin up): amplitude} of a report's basis descriptor, in
    the basis of the real J-sector blocks."""
    amplitudes = {}
    for key, weight, up in (("upper_state", state["upper_weight"], True),
                            ("lower_state", complex(*state["lower_weight"]), False)):
        if state[key] is not None:
            n_a, n_b = state[key]
            amplitudes[(n_a, n_b, up)] = weight * UNPHASE[n_b % 4]
    return amplitudes


def _block_cells(j: int) -> list:
    """The (n_a, n_b, spin up) of the rows of J-sector j's block
    (`sector_stacks`): spin up, then spin down, each ascending in n_b."""
    return [(n_b + d, n_b, up) for d, up in ((j, True), (j - 1, False))
            for n_b in SPACE.line(d)]


def _sector_of(amplitudes: dict) -> int:
    """The one J = n_a - n_b + [spin down] of a state's amplitudes."""
    (j,) = {n_a - n_b + (not up) for n_a, n_b, up in amplitudes}
    return j


def _reported_states(p: ModelParams, spectators: list) -> dict:
    """{(n, branch, spectator): (amplitudes, J, energy / m c^2)} of every state
    that a first-order report of a level n <= 2 names, each checked to be an
    eigenvector of its J-sector block at a = 0 with that eigenvalue."""
    terms, found = sector_terms(SPACE, p, 0.0), {}
    blocks = {j: block for j, (block,) in zip(SPACE.sectors, sector_stacks(SPACE, [terms]))}
    for n, branch in itertools.product((0, 1, 2), BRANCHES):
        if abs_level(p, n, branch) is None:
            continue
        reports = [degenerate_shift(SPACE, p, n, spectators, branch)]
        if n <= 1:
            reports += [first_order_shift(SPACE, p, n, branch, k) for k in spectators]
        for r in reports:
            energy = r.unperturbed_energy / p.rest_energy
            states = [_phased(state) for state in r.subspace_basis]
            assert sorted(r.sectors) == sorted(map(_sector_of, states))
            for state, amplitudes in zip(r.subspace_basis, states):
                j = _sector_of(amplitudes)
                block = blocks[j]
                v = np.array([amplitudes.get(cell, 0.0) for cell in _block_cells(j)])
                assert np.vdot(v, v).real == pytest.approx(1.0)
                residual = np.max(np.abs(block @ v - energy * v))
                assert residual <= 1e-12 * max(1.0, abs(energy))
                found[(n, branch, state["spectator"])] = amplitudes, j, energy
    return found


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(omega=scales, mass=scales, light_speed=scales, hbar=scales, charge=scales,
       ratio=st.floats(0.0, 0.9),
       spectators=st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
def test_reported_states_are_eigenvectors_and_mirror_across_the_critical_field(
        omega, mass, light_speed, hbar, charge, ratio, spectators):
    # a = 0 at B / B_c = ratio (near side) and 2 - ratio (far side, the same
    # |lam| up to roundoff): every state a report names, n <= 2, the far-side
    # rest level (0, -) included, is an eigenvector of its J-sector block
    # with eigenvalue the report's energy / m c^2; each far-side state
    # (n, branch, k) is the mirror of the near-side (n, -branch, k), under
    # |n_a, n_b, up> -> |n_b, n_a, down>, |n_a, n_b, down> -> -|n_b, n_a, up>,
    # which takes the near blocks to minus the far ones: J -> 1 - J, E -> -E
    base = ModelParams(omega=omega, mass=mass, light_speed=light_speed, hbar=hbar,
                       charge=charge)
    bc = critical_field(base)
    near, far = base.with_field(ratio * bc), base.with_field((2.0 - ratio) * bc)
    assert near.omega_tilde > 0.0 > far.omega_tilde
    assert math.isclose(near.lam, -far.lam, rel_tol=1e-14)
    near_states = _reported_states(near, spectators)
    far_states = _reported_states(far, spectators)
    assert len(far_states) == len(near_states)
    partner = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}
    for (n, branch, k), (amplitudes, j, energy) in far_states.items():
        mirrored, j_near, energy_near = near_states[(n, partner[branch], k)]
        assert j == 1 - j_near
        assert energy == pytest.approx(-energy_near, rel=1e-12)
        image = {(n_b, n_a, not up): x if up else -x
                 for (n_a, n_b, up), x in mirrored.items()}
        assert image.keys() == amplitudes.keys()
        # equal up to one global phase
        cell = next(iter(image))
        phase = amplitudes[cell] / image[cell]
        assert abs(phase) == pytest.approx(1.0)
        for cell, x in image.items():
            assert abs(amplitudes[cell] - phase * x) <= 1e-12


def _validation_statuses(p):
    return [(r["row"], r["status"]) for r in validation_report(SPACE, p)["rows"]]


def _units_params(mass, light_speed, hbar, charge):
    """omega = 0.2 m c^2 / hbar, B = B_c / 2 and a = 1e-4 / (m c): lambda =
    0.1 and alpha = 1e-4 in every system of units."""
    p = ModelParams(omega=0.2 * mass * light_speed ** 2 / hbar, mass=mass,
                    light_speed=light_speed, hbar=hbar, charge=charge,
                    gup_a=1e-4 / (mass * light_speed))
    return p.with_field(0.5 * critical_field(p))


@functools.cache
def _natural_statuses():
    """`validate`'s statuses in natural units, computed at the first test
    that reads them, so a broken `validate` fails that test and leaves the
    module's collection alone."""
    return _validation_statuses(_units_params(1.0, 1.0, 1.0, 1.0))


unit = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)  # log-uniform over 1e-4 .. 1e4


@DRAWS
@given(mass=unit, light_speed=unit, hbar=unit, charge=unit)
def test_validation_does_not_depend_on_the_units(mass, light_speed, hbar, charge):
    p = _units_params(mass, light_speed, hbar, charge)
    assert _validation_statuses(p) == _natural_statuses()


milli = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)  # log-uniform over 1e-3 .. 1e3


@DRAWS
@given(mass=milli, light_speed=milli, hbar=milli, charge=milli,
       abs_lam=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),  # over 0.1 .. 10
       ratio=st.floats(0.0, 0.9) | st.floats(1.1, 3.0))
# lambda = 0.1 at B = 0 in four unit systems, and lambda = 0.1 / 9 at c = 3
@example(mass=1.0, light_speed=1.0, hbar=1.0, charge=1.0, abs_lam=0.1, ratio=0.0)
@example(mass=2.0, light_speed=1.0, hbar=1.0, charge=1.0, abs_lam=0.1, ratio=0.0)
@example(mass=1.0, light_speed=3.0, hbar=1.0, charge=1.0, abs_lam=0.1 / 9.0, ratio=0.0)
@example(mass=1.0, light_speed=1.0, hbar=2.0, charge=1.0, abs_lam=0.1, ratio=0.0)
def test_oracle_agrees_with_every_shift_near_lam_one(
        mass, light_speed, hbar, charge, abs_lam, ratio):
    # wt = omega (1 - B / B_c), so omega sets |lam| on either side of B_c
    rest = mass * light_speed ** 2
    base = ModelParams(omega=abs_lam * rest / (hbar * abs(1.0 - ratio)), mass=mass,
                       light_speed=light_speed, hbar=hbar, charge=charge,
                       gup_a=1e-4 / (mass * light_speed))
    p = base.with_field(ratio * critical_field(base))
    assert np.isclose(abs(p.lam), abs_lam) and (p.lam > 0.0) == (ratio < 1.0)
    ground = POSITIVE if p.lam > 0.0 else NEGATIVE
    reports = oracle_check(SPACE, p, [
        first_order_shift(SPACE, p, 0, ground),
        first_order_shift(SPACE, p, 1, POSITIVE),
        first_order_shift(SPACE, p, 1, NEGATIVE),
        degenerate_shift(SPACE, p, 2, range(4)),
    ])
    # in units of a c m hbar wt the ground shift is -sign(lam), and every
    # shift is that of natural units at the same lambda
    assert reports[0].shifts == [-math.copysign(1.0, p.lam)]
    natural = (ModelParams(omega=p.lam) if p.lam >= 0.0
               else ModelParams(omega=0.0, b_field=-2.0 * p.lam))
    assert reports[1].shifts == pytest.approx(
        first_order_shift(SPACE, natural, 1, POSITIVE).shifts, rel=1e-12, abs=0.0)
    for r in reports:
        assert not [f for f in r.discrepancy_flags if f.startswith("oracle slope")]
        assert len(r.oracle_slopes) == len(r.shifts)
        assert all(_agrees(o, s) for o, s in zip(r.oracle_slopes, r.shifts))


def _command_reports(space: FockSpace, p: ModelParams) -> list[PTReport]:
    """The checked shift reports of `correct --branch both` (n = 0, 1 where
    the level exists) and of `degenerate` (n = 2, k = 0 .. 3), one oracle
    call per command, as the commands make them."""
    states = [(n, b) for n in (0, 1) for b in BRANCHES if abs_level(p, n, b) is not None]
    return [*oracle_check(space, p, [first_order_shift(space, p, *s) for s in states]),
            *oracle_check(space, p, [degenerate_shift(space, p, 2, range(4))])]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(abs_lam=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),  # over 0.1 .. 10
       ratio=st.floats(0.0, 0.9) | st.floats(1.1, 3.0),
       gup_a=st.floats(-6.0, -2.0).map(lambda e: 10.0 ** e))  # over 1e-6 .. 1e-2
def test_shift_reports_converge_in_the_cutoff(abs_lam, ratio, gup_a):
    # every state these reports name lies well inside cutoff 12, so a larger
    # truncation changes nothing but the slopes' last digits; wt = omega
    # (1 - B / B_c) sets |lam| on either side of B_c
    base = ModelParams(omega=abs_lam / abs(1.0 - ratio), gup_a=gup_a)
    p = base.with_field(ratio * critical_field(base))
    small, large = (_command_reports(FockSpace(cutoff), p) for cutoff in (12, 30))
    assert [r.cluster_label for r in small] == [r.cluster_label for r in large]
    for r, s in zip(small, large, strict=True):
        for name in PTReport._fields:
            a, b = getattr(r, name), getattr(s, name)
            if name == "oracle_slopes":
                assert len(a) == len(b) == len(r.shifts)
                assert all(math.isclose(x, y, rel_tol=1e-8, abs_tol=0.0)
                           for x, y in zip(a, b)), name
            else:  # the matrices too: a complex repr keeps every bit and sign
                assert repr(a) == repr(b), name


def _validate_json(p: ModelParams, cutoff: int) -> dict:
    """validate's JSON report at these parameters and cutoff, its config
    echo left out."""
    argv = ["validate", f"--omega={p.omega!r}", f"--B={p.b_field!r}",
            f"--gup-a={p.gup_a!r}", f"--cutoff={cutoff}", "--format=json"]
    with tempfile.TemporaryDirectory() as tmp:
        code, report = _report(argv, pathlib.Path(tmp, "report"))
    assert code in (0, 1)
    return {k: v for k, v in json.loads(report).items() if k != "config"}


# the oracle slopes of cutoffs 12 and 16 agree to this, relative
SLOPE_RTOL = 1e-8


def _converged(small, large, path="") -> None:
    """Assert two decoded reports equal, field by field, the oracle's slopes
    (a slope row's `computed` and `oracle_slopes`) within SLOPE_RTOL."""
    if isinstance(small, dict):
        assert small.keys() == large.keys(), path
        oracle = str(small.get("row", "")).endswith("-oracle")
        for key in small:
            if key == "oracle_slopes" or (oracle and key == "computed"):
                slopes = small[key] if isinstance(small[key], list) else [small[key]]
                others = large[key] if isinstance(large[key], list) else [large[key]]
                assert len(slopes) == len(others), path
                assert all(math.isclose(x, y, rel_tol=SLOPE_RTOL, abs_tol=0.0)
                           for x, y in zip(slopes, others)), f"{path}.{key}"
            else:
                _converged(small[key], large[key], f"{path}.{key}")
    elif isinstance(small, list):
        assert len(small) == len(large), path
        for i, (a, b) in enumerate(zip(small, large)):
            _converged(a, b, f"{path}[{i}]")
    else:
        assert repr(small) == repr(large), path


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(abs_lam=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),  # over 0.1 .. 10
       ratio=st.floats(0.0, 0.9),
       gup_a=st.floats(-6.0, -2.0).map(lambda e: 10.0 ** e))  # over 1e-6 .. 1e-2
def test_validate_reports_converge_in_the_cutoff(abs_lam, ratio, gup_a):
    # below the critical field every state validate names lies well inside
    # cutoff 12, so cutoff 16 changes nothing but the slopes' last digits:
    # every other field, each level row, verdict and stored-block value
    # included, is the same float; validate prints no truncation count
    base = ModelParams(omega=abs_lam / (1.0 - ratio), gup_a=gup_a)
    p = base.with_field(ratio * critical_field(base))
    _converged(_validate_json(p, 12), _validate_json(p, 16))


@DRAWS
@given(omega=unit, mass=unit, light_speed=unit, hbar=unit, charge=unit,
       gup_a=st.just(0.0) | st.floats(1e-8, 1e-2),
       ratio=st.floats(0.0, 0.9) | st.floats(1.1, 3.0))
def test_blocks_depend_on_the_units_only_through_lam_and_alpha(
        omega, mass, light_speed, hbar, charge, gup_a, ratio):
    # off the critical field, the block terms of any unit system are bitwise
    # those of natural units with the reduced frequency lam
    base = ModelParams(omega=omega, mass=mass, light_speed=light_speed, hbar=hbar,
                       charge=charge, gup_a=gup_a)
    p = base.with_field(ratio * critical_field(base))
    lam = p.lam
    natural = (ModelParams(omega=lam) if lam >= 0.0
               else ModelParams(omega=0.0, b_field=-2.0 * lam))
    assert natural.omega_tilde == lam
    terms = sector_terms(SPACE, p, p.alpha_gup)
    assert ([t.hex() for t in terms]
            == [t.hex() for t in sector_terms(SPACE, natural, p.alpha_gup)])


wide = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)


@DRAWS
@given(omega=wide, mass=wide, light_speed=wide, hbar=wide, charge=wide)
# hbar / (m omega) underflows to 0, and overflows
@example(omega=1e150, mass=1e150, light_speed=1.0, hbar=1e-300, charge=1.0)
@example(omega=1e-10, mass=1e-10, light_speed=1.0, hbar=1e300, charge=1.0)
def test_critical_field_coupling_is_sqrt_hbar_omega_over_m_c2(
        omega, mass, light_speed, hbar, charge):
    try:
        base = ModelParams(omega=omega, mass=mass, light_speed=light_speed, hbar=hbar,
                           charge=charge)
        p = base.with_field(critical_field(base))
    except UsageError:  # a derived scale beyond the float range
        assume(False)
    assume(p.omega_tilde == 0.0)  # the field rounded onto B_c exactly
    k_a, k_b, deform = sector_terms(SPACE, p, 0.0)
    ctx = Context(prec=50)
    exact = ctx.divide(ctx.multiply(Decimal(hbar), Decimal(omega)),
                       ctx.multiply(Decimal(mass), ctx.power(Decimal(light_speed), 2)))
    exact = ctx.sqrt(exact)
    assert k_a == k_b and deform == 0.0
    assert abs(Decimal(k_a) - exact) <= Decimal(1e-15) * exact


# a spectrum: moderate energies, which repeat so that clusters form, and
# energies near either end of the float range, whose gaps and sums overflow;
# without moderate ones, the two ends of the range are neighbours
moderate = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]) | st.floats(-10.0, 10.0)
extreme = (st.floats(-FLOAT_MAX, -1e307) | st.floats(1e307, FLOAT_MAX)
           | st.sampled_from([-FLOAT_MAX, FLOAT_MAX]))


@st.composite
def spectra_and_windows(draw):
    """An ascending spectrum and a window, at times one of its own finite
    gaps, where a run must not break."""
    values = draw(st.just([]) | st.lists(moderate, max_size=30))
    values += draw(st.lists(extreme, max_size=6))
    spectrum = np.sort(np.array(values, dtype=float))
    with np.errstate(over="ignore"):
        gaps = [g for g in np.diff(spectrum).tolist() if 0.0 < g < np.inf]
    windows = st.sampled_from([1e-12, 1e-9, 1e-3, 1.0, 1e307])
    return spectrum, draw(windows | st.sampled_from(gaps) if gaps else windows)


@DRAWS
@given(drawn=spectra_and_windows())
def test_cluster_sizes_equal_the_per_cluster_loop(drawn):
    spectrum, window = drawn
    sizes = spectral_clusters(spectrum.tolist(), window)
    assert sum(sizes) == len(spectrum)
    with np.errstate(over="ignore"):  # the loop's gaps and means may overflow
        loop = spectral_clusters_loop(spectrum, window)
    assert sizes == [m for _, m in loop]


FORMATS = {"spectrum": ["text", "json"], "correct": ["text", "json"],
           "degenerate": ["text", "json"], "validate": ["text", "json"],
           "scan": ["text", "json", "csv"]}
# The least cutoff whose interior holds every state a command reports: n = 1
# for correct, and the n = 2 cluster's spectator 3 for degenerate and validate.
LEAST_CUTOFF = {"spectrum": 2, "correct": 3, "degenerate": 7, "validate": 7, "scan": 2}


@st.composite
def invocations(draw, command):
    """argv of `command`: units, omega, B on either side of B_c, a, the
    branch, the levels and a cutoff from levels + 2 (or the command's least)
    to 12."""
    base = ModelParams(omega=draw(scales), mass=draw(scales), light_speed=draw(scales),
                       hbar=draw(scales), charge=draw(scales),
                       gup_a=draw(st.just(0.0) | st.floats(1e-8, 1e-2)))
    b = draw(st.floats(0.0, 0.9) | st.floats(1.1, 3.0)) * critical_field(base)
    levels = draw(st.integers(0, 6))
    values = dict(omega=base.omega, mass=base.mass, light_speed=base.light_speed,
                  hbar=base.hbar, charge=base.charge, gup_a=base.gup_a,
                  branch=draw(st.sampled_from(["+", "-", "both"])), levels=levels,
                  cutoff=draw(st.integers(max(levels + 2, LEAST_CUTOFF[command]), 12)),
                  format=draw(st.sampled_from(FORMATS[command])))
    if command == "scan":
        values.update(B_min=0.0, B_max=b, steps=draw(st.integers(2, 3)))
    else:
        values["B"] = b
    return [command, *(f"--{k.replace('_', '-')}={v}" for k, v in values.items())]


def _report(argv: list[str], path: pathlib.Path) -> tuple[int, str | None]:
    path.unlink(missing_ok=True)
    code = main([*argv, "--output", str(path)])
    return code, path.read_text(encoding="utf-8") if path.exists() else None


# six draws per command, 30 in all
@pytest.mark.parametrize("command", sorted(FORMATS))
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_reports_are_deterministic_and_the_config_echo_reproduces_them(command, data):
    argv = data.draw(invocations(command))
    with tempfile.TemporaryDirectory() as tmp:
        out, echo = pathlib.Path(tmp, "report"), pathlib.Path(tmp, "echo.json")
        code, report = _report(argv, out)
        if code not in (0, 1):  # no report to reproduce
            return
        assert _report(argv, out) == (code, report)
        config = parse_config(argv)
        if config.format == "json":  # the echo the report carries
            assert json.loads(report)["config"] == config.echo()
        echo.write_text(json.dumps(config.echo()), encoding="utf-8")
        assert _report([argv[0], "--config", str(echo)], out) == (code, report)


b_fields = st.integers(1, 199).map(lambda k: k / 100) | st.just(2.0) | st.floats(-10.0, 10.0)


@DRAWS
@given(ends=st.lists(b_fields, min_size=2, max_size=2).map(sorted), steps=st.integers(2, 39))
# the float 0.1 + (2 - 0.1) * 3 / 3 is 1.9999999999999998
@example(ends=[0.1, 2.0], steps=4)
def test_scan_grid_runs_from_b_min_to_b_max(ends, steps):
    # at cutoff 2 every point records the n = 1 state's headroom error, so
    # nothing is solved, and each point still reports its field
    b_min, b_max = ends
    argv = ["scan", "--omega=1", f"--B-min={b_min!r}", f"--B-max={b_max!r}",
            f"--steps={steps}", "--cutoff=2", "--format=json"]
    with tempfile.TemporaryDirectory() as tmp:
        code, report = _report(argv, pathlib.Path(tmp, "report"))
    grid = [point["B"] for point in json.loads(report)["points"]]
    assert code == 0 and len(grid) == steps
    assert grid[0] == b_min and grid[-1] == b_max
    assert all(b1 <= b2 for b1, b2 in zip(grid, grid[1:]))


@st.composite
def hermitian_blocks(draw):
    """A Hermitian matrix of dimension 1 - 6 as its rows, real or complex:
    entries of magnitude 1e-150 to 1e150, a scalar matrix, or U diag(w) U^H
    with U unitary and one eigenvalue of w repeated."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["entries", "scalar", "repeated"]))
    dtype = draw(st.sampled_from([float, complex]))
    if kind == "scalar":
        value = draw(st.floats(-1e150, 1e150))
        return [[dtype(value if i == j else 0.0) for j in range(n)] for i in range(n)]
    if kind == "repeated":
        w = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        w[-1] = w[0]
        parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * n * n, max_size=2 * n * n))
        z = np.array(parts[:n * n]).reshape(n, n)
        if dtype is complex:
            z = z + 1j * np.array(parts[n * n:]).reshape(n, n)
        u, _ = np.linalg.qr(z + 3.0 * np.eye(n))
        a = (u * w) @ u.conj().T
        a = np.tril(a, -1) + np.tril(a, -1).conj().T + np.diag(a.diagonal().real)
        return a.tolist()
    magnitudes = st.tuples(st.floats(-1.0, 1.0), st.integers(-150, 150)).map(
        lambda m: m[0] * 10.0 ** m[1])
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = dtype(draw(magnitudes))
        for j in range(i):
            x = draw(magnitudes) + (1j * draw(magnitudes) if dtype is complex else 0.0)
            rows[i][j], rows[j][i] = x, x.conjugate()
    return rows


@DRAWS
@given(rows=hermitian_blocks())
@example(rows=[list(row) for row in REFERENCE_DEGENERATE_BLOCK])
@example(rows=(2.5 * np.eye(4, dtype=complex)).tolist())
# complex entries, whose rotations each need their phase
@example(rows=[[1.0, -2j, 0.5], [2j, 3.0, 1 + 1j], [0.5, 1 - 1j, -1.0]])
def test_jacobi_rotations_keep_the_eigh_contract(rows):
    # against LAPACK (np.linalg.eigh) on the same block: the eigenvalues
    # within eigh's residual bound, each residual within it, the columns
    # orthonormal, one of each column's largest entries real and positive
    # (the phase that makes it so turns the others by roundoff), and an
    # isolated eigenvalue's vector LAPACK's up to its phase. The stored
    # block's -8 is exact, and of its vector's two equal entries the first
    # is the positive one
    w, v = _jacobi_eigh(rows)
    a, vectors = np.array(rows, dtype=complex), np.array(v)
    n = len(rows)
    bound = DEFAULT_EIGH_TOL * max(1.0, norm_max(a) * n)
    lapack_w, lapack_v = np.linalg.eigh(a)
    assert w == sorted(w) and all(type(x) is float for x in w)
    if all(rows[i][j] == 0.0 for i in range(n) for j in range(n) if i != j):
        assert w == sorted(complex(rows[i][i]).real for i in range(n))  # no rotation
    assert np.max(np.abs(np.array(w) - lapack_w)) <= bound
    assert np.max(np.linalg.norm(a @ vectors - vectors * np.array(w), axis=0)) <= bound
    assert norm_max(vectors.conj().T @ vectors - np.eye(n)) <= 1e-10
    gaps = np.diff(lapack_w, prepend=-np.inf, append=np.inf)
    for k, column in enumerate(vectors.T):
        largest = np.abs(column) >= np.max(np.abs(column)) * (1.0 - 4.0 * np.finfo(float).eps)
        assert any(x.imag == 0.0 and x.real > 0.0 for x in column[largest]), k
        if min(gaps[k], gaps[k + 1]) > 1e-3 * max(1.0, norm_max(a) * n):
            assert abs(abs(np.vdot(lapack_v[:, k], column)) - 1.0) <= 1e-8, k
    if rows == [list(row) for row in REFERENCE_DEGENERATE_BLOCK]:
        assert w[1] == -8.0
        first, second, *rest = vectors[:, 1]
        assert first == -second and first.real > 0.0 and rest == [0.0, 0.0]


@functools.cache
def _unit_chains(cutoff: int) -> dict:
    """{J: (its diagonal, its coupling entries)} of the reference H0 / (m c^2)
    (tests/reference.py, `sector_block`) at the critical field of omega = m
    = c = hbar = 1, where both couplings are 1: at a = 0 the couplings are
    the only entries off the diagonal, so the block at coupling k is the
    diagonal plus k times the rest."""
    space = Space(cutoff=cutoff, include_spin=True)
    p = ModelParams(omega=1.0, b_field=2.0)
    assert p.rest_energy == 1.0  # so H0 is in units of m c^2 as built
    h = build_h0(space, p)
    chains = {}
    for j in FockSpace(cutoff).sectors:
        block = sector_block(space, h, j)
        assert norm_max(block.imag) == 0.0
        diagonal = np.diag(block.real.diagonal())
        chains[j] = diagonal, block.real - diagonal
    return chains


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(cutoff=st.sampled_from([4, 12, 40]), coupling=st.floats(-8.0, 10.0),
       window=st.floats(-12.0, 0.0))
# FOUND 42's config: a coupling of 1e10 m c^2 and the default window, and
# a coupling of 1e150, where an unscaled pivot floor swallows the window
@example(cutoff=12, coupling=10.0, window=-9.0)
@example(cutoff=40, coupling=150.0, window=-12.0)
def test_chain_counts_equal_the_dense_reference(cutoff, coupling, window):
    # the critical field's J-chains at a coupling of 10^coupling and a window
    # of 10^window m c^2: the inertia count at and one ulp beside every
    # eigenvalue lies between numpy's counts at sigma -+ its accuracy, so does
    # each level row's window count at +-1, and no count misses an unmatched
    # state, exactly at +-1, where a dense solver's roundoff can lose it
    base = ModelParams(omega=10.0 ** (2.0 * coupling))
    p = base.with_field(critical_field(base))
    space, window = FockSpace(cutoff), 10.0 ** window
    k_a, k_b, _ = sector_terms(space, p, 0.0)
    assert k_a == k_b and math.isclose(k_a, 10.0 ** coupling, rel_tol=1e-12)
    chains = [SectorBand(space, (k_a, k_b), j).entries(0.0) for j in space.sectors]
    inside = {1.0: [0, 0], -1.0: [0, 0]}  # numpy's counts within window -+ tol
    for (j, (diagonal, links)), chain in zip(_unit_chains(cutoff).items(), chains):
        block = diagonal + k_a * links
        w = np.linalg.eigvalsh(block)
        tol = 1e-13 * max(1.0, norm_max(block))
        pivmin = _scales(chain)[2]
        for e in w.tolist():
            for sigma in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)):
                lowest, highest = np.searchsorted(w, [sigma - tol, sigma + tol])
                assert lowest <= _count(chain, sigma, pivmin) <= highest, (j, sigma)
        for level, counts in inside.items():
            counts[0] += np.count_nonzero(np.abs(w - level) <= window - tol)
            counts[1] += np.count_nonzero(np.abs(w - level) <= window + tol)
    for level, (fewest, most) in inside.items():
        unmatched = sum(max(0, int(level) * (len(space.line(j)) - len(space.line(j - 1))))
                        for j in space.sectors)
        count = window_count(chains, level, window)
        assert max(fewest, unmatched) <= count <= most, level
    if (cutoff, coupling, window) == (12, 10.0, CLUSTER_WINDOW):
        assert window_count(chains, 1.0, window) == window_count(chains, -1.0, window) == 6
