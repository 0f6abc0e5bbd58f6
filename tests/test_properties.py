"""Property tests: drawn inputs against the invariants of the closed-form paths.

Every draw is derandomized, so a run tests the same examples each time, and
the example counts are bounded to keep the suite fast.
"""

import itertools
import json
import math
import pathlib
import tempfile
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gup_dosc import model
from gup_dosc.cli import main, parse_config
from gup_dosc.errors import UsageError
from gup_dosc.fock import FockSpace
from gup_dosc.model import build_sectors, interior_spectrum, paired, sector_terms
from gup_dosc.numerics import eigvalsh
from gup_dosc.params import BRANCHES, NEGATIVE, POSITIVE, ModelParams
from gup_dosc.perturbation import (
    _agrees,
    critical_field,
    degenerate_shift,
    first_order_shift,
    level_exists,
    oracle_check,
    spectral_clusters,
    validation_report,
)
from reference import spectral_clusters_loop

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
def test_degenerate_shifts_are_the_sorted_diagonal(p, n, branch, size):
    r = degenerate_shift(SPACE, p, n, range(size), branch)
    matrix = r.subspace_matrix
    diagonal = matrix.diagonal().real
    assert np.all(matrix[~np.eye(size, dtype=bool)] == 0.0)
    assert r.shifts == sorted(diagonal.tolist())
    # the eigenvectors permute the cluster basis: column i picks the member
    # whose diagonal entry is shift i
    assert np.array_equal(np.abs(r.eigenvectors), np.abs(r.eigenvectors) ** 2)
    assert np.array_equal(r.eigenvectors.sum(axis=0), np.ones(size))
    assert np.array_equal(r.eigenvectors.sum(axis=1), np.ones(size))
    members = np.argmax(np.abs(r.eigenvectors), axis=0)
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
    assume(level_exists(p, n, branch))
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


@DRAWS
@given(p=model_params())
def test_pair_spectra_equal_the_dense_blocks(p):
    # a = 0 off the critical field: the closed-form pairs and singles of
    # `pair_spectrum` against the J-sector blocks they are a sum of
    terms = sector_terms(SPACE, p, 0.0)
    assert paired(terms)
    (row,) = interior_spectrum(SPACE, [terms])
    dense = np.sort(np.concatenate([eigvalsh(stack)[0]
                                    for stack in build_sectors(SPACE, [terms])]))
    assert row.shape == dense.shape
    assert np.max(np.abs(row - dense)) <= 1e-12


@DRAWS
@given(p=model_params())
def test_pair_spectra_are_symmetric_under_negation(p):
    # a = 0 off the critical field: each pair gives +-hypot(1, kappa) m c^2,
    # and the m c^2 and -m c^2 singles are equally many, so E -> -E maps the
    # interior spectrum onto itself exactly
    (row,) = interior_spectrum(SPACE, [sector_terms(SPACE, p, 0.0)])
    assert np.array_equal(row, -row[::-1])


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
    (`model.build_sectors`): spin up, then spin down, each ascending in n_b."""
    return [(n_a, n_b, up) for d, up in ((j, True), (j - 1, False))
            for n_a, n_b in zip(*(x.tolist() for x in model._diagonal_line(d, SPACE.top)))]


def _sector_of(amplitudes: dict) -> int:
    """The one J = n_a - n_b + [spin down] of a state's amplitudes."""
    (j,) = {n_a - n_b + (not up) for n_a, n_b, up in amplitudes}
    return j


def _reported_states(p: ModelParams, spectators: list) -> dict:
    """{(n, branch, spectator): (amplitudes, J, energy / m c^2)} of every state
    that a first-order report of a level n <= 2 names, each checked to be an
    eigenvector of its J-sector block at a = 0 with that eigenvalue."""
    terms, found = sector_terms(SPACE, p, 0.0), {}
    for n, branch in itertools.product((0, 1, 2), BRANCHES):
        if not level_exists(p, n, branch):
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
                (block,) = next(build_sectors(SPACE, [terms], [j]))
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


NATURAL_STATUSES = _validation_statuses(_units_params(1.0, 1.0, 1.0, 1.0))
unit = st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)  # log-uniform over 1e-4 .. 1e4


@DRAWS
@given(mass=unit, light_speed=unit, hbar=unit, charge=unit)
def test_validation_does_not_depend_on_the_units(mass, light_speed, hbar, charge):
    p = _units_params(mass, light_speed, hbar, charge)
    assert _validation_statuses(p) == NATURAL_STATUSES


milli = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)  # log-uniform over 1e-3 .. 1e3


@DRAWS
@given(mass=milli, light_speed=milli, hbar=milli, charge=milli,
       abs_lam=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),  # over 0.1 .. 10
       ratio=st.floats(0.0, 0.9) | st.floats(1.1, 3.0))
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
    for r in reports:
        assert not [f for f in r.discrepancy_flags if f.startswith("oracle slope")]
        assert len(r.oracle_slopes) == len(r.shifts)
        assert all(_agrees(o, s) for o, s in zip(r.oracle_slopes, r.shifts))


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
    sizes = spectral_clusters(spectrum, window)
    assert sizes.sum() == len(spectrum)
    with np.errstate(over="ignore"):  # the loop's gaps and means may overflow
        loop = spectral_clusters_loop(spectrum, window)
    assert sizes.tolist() == [m for _, m in loop]


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
