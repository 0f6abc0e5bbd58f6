"""First-order corrections, the exact-diagonalization oracle, and scans.

Every perturbative number produced here is cross-checkable against an
independent path: first-order shifts come from matrix elements of the
perturbation over explicitly constructed eigenstates, while the oracle
(`oracle_check`) differentiates the exact eigenvalue of each state's own
J-sector with respect to the deformation parameter (Richardson-extrapolated
central differences through a = 0). The oracle picks that eigenvalue's index
in the sector's closed-form a = 0 spectrum and takes it at the other
strengths from the same sector band (`model.SectorBand`): inertia counts,
bisection and inverse iteration in Python floats, the same bits on every
CPU and BLAS kernel.

Shift bookkeeping: `shifts` are dimensionless multiples of the natural
correction scale a c m hbar wt (`SHIFT_UNITS`); `shifts_energy` are the same
numbers converted to energy for the configured deformation strength. Beyond
the critical field wt flips sign, the level structure mirrors between the
two boson modes, and the branch carrying the undisplaced rest-energy level
flips from + to -; reports flag this.

This module loads no numpy: the shift reports, their at most 4x4 matrices
held as tuples of rows, the stored block's eigenpairs (`_jacobi_eigh`), the
level rows at any field, whose route `model.level_windows` picks, the
oracle and the scan's histograms are pure Python. numpy loads only with a
scan's spectra, in `interior_spectrum`'s dense branch (its a != 0 configs
and the coupled critical field), which scatters the J-bands into dense
stacks for the eigensolver.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence

from .errors import ComputationError, UsageError
from .fock import FockSpace, stack_configs
from .model import SectorBand, interior_spectrum, level_windows, nearest_level, sector_terms
from .params import (
    BRANCHES,
    CLUSTER_WINDOW,
    DEFAULT_EIGH_TOL,
    NEGATIVE,
    POSITIVE,
    ModelParams,
    SpinorLevel,
    _Value,
    abs_level,
    landau_level,
    residual_bound,
    spinor_level,
)

SHIFT_UNITS = "a·c·m·ħ·ω̃"
# Flag of every shift report beyond the critical field.
OVER_CRITICAL = "over-critical: operator spectrum follows |wt| with mirrored branches"

# Deformation steps (in units of alpha = a m c) for the oracle stencil.
ORACLE_STEP = 1e-5
# Relative agreement demanded between a shift and its oracle slope.
ORACLE_RTOL = 1e-6

# Reference values for the validation command: the degenerate second-level
# block quoted for this model (entries in units of a c m hbar wt), its
# expected shift set, and the expected first-excited and ground shifts.
# The block is a tuple of rows of complex entries, with the signed zeros of
# the complex products: 2.5-0j off the diagonal.
REFERENCE_DEGENERATE_BLOCK = tuple(
    tuple(-0.5 * complex(x) for x in row)
    for row in (
        (11.0, -5.0, -5.0, -5.0),
        (-5.0, 11.0, -5.0, -5.0),
        (-5.0, -5.0, 13.0, -5.0),
        (-5.0, -5.0, -5.0, 9.0),
    )
)
REFERENCE_DEGENERATE_SHIFTS = (-8.7308, -8.0, -7.3192, 2.05)
REFERENCE_DEGENERATE_EIGENVECTOR = (-1.0, 1.0, 0.0, 0.0)
REFERENCE_DEGENERATE_EIGENVECTOR_SHIFT = -8.0
REFERENCE_FIRST_EXCITED_SHIFT = -2.5
REFERENCE_GROUND_SHIFT = -1.0

# Validation rows allowed to disagree without failing the run: the stored
# first-excited value and the stored block are not reproducible from the
# constructions this package pins down (see README).
ALLOWLISTED_DISCREPANCIES = frozenset(
    {"first-excited-shift", "degenerate-block-basis"}
)


class PTReport(_Value):
    """One perturbation-theory result, a value that `oracle_check` copies
    with its cross-check. It does not hash: its fields hold lists. Its
    matrices are tuples of rows of complex entries, so reports compare by
    value. A report of an external block, with no states, keeps the
    defaults."""

    cluster_label: str
    unperturbed_energy: float
    method: str
    subspace_basis: list[dict] = ()
    subspace_matrix: tuple[tuple[complex, ...], ...]
    shifts: list[float]
    shifts_energy: list[float] = ()
    oracle_slopes: list[float] = ()
    discrepancy_flags: list[str] = ()
    breakdown: dict | None = None
    eigenvectors: tuple[tuple[complex, ...], ...] | None = None
    # J = n_a - n_b + [spin down] of each shift's state, in shift order; empty
    # where no state is built (the critical field, an external block)
    sectors: list[int] = ()


def critical_field(p: ModelParams) -> float:
    """Field at which the reduced frequency vanishes: `ModelParams.critical_field`,
    kept as a public name, which perfbench/verify.py imports; the package
    reads the property."""
    return p.critical_field


def _check_headroom(space: FockSpace, n: int, spectator: int) -> None:
    """UsageError unless the state (n, spectator) fits: n + spectator <= `space.top`."""
    if n + spectator > space.top:
        raise UsageError(f"state (n={n}, spectator={spectator}) too close to "
                         f"cutoff {space.cutoff}; raise the cutoff")


def _placement(p: ModelParams, n: int, spectator: int) -> tuple:
    """(upper, lower, phase): the (n_a, n_b) of the upper and the lower spinor
    component of the state (n, spectator), None for one with a negative
    quantum, and the lower one's phase relative to the upper one.

    Up to the critical field mode a holds the dynamical quanta and mode b the
    spectator: (n, k) and (n - 1, k). Beyond it the modes swap, the
    components exchange their dynamical quanta, and the lower one carries the
    phase i, that of the i^{n_b} basis (CONVENTIONS.md, Sectors): (k, n - 1)
    and (k, n).
    """
    if p.omega_tilde < 0.0:
        cells, phase = ((spectator, n - 1), (spectator, n)), 1j
    else:
        cells, phase = ((n, spectator), (n - 1, spectator)), 1.0
    upper, lower = (cell if min(cell) >= 0 else None for cell in cells)
    # a lone component, the rest level's, has no relative phase
    return upper, lower, phase if upper and lower else 1.0


def _state_vector(p: ModelParams, level: SpinorLevel, spectator: int) -> tuple:
    """Nonzero amplitudes of the checked state (n, branch, spectator) of an
    operator level, an eigenstate of H0 off the critical field, its basis
    descriptor and its J-sector.

    Amplitudes are (weight, n_a, n_b), the upper spinor component first:
    c_n and d_n placed by `_placement`. A level exists where it weighs no
    component without a state, so the rest level's state is one component.
    """
    upper, lower, phase = _placement(p, level.n, spectator)
    lower_weight = complex(phase * level.d_n)
    amplitudes = [(weight, *cell) for weight, cell
                  in ((complex(level.c_n), upper), (lower_weight, lower)) if cell]
    descriptor = {
        "upper_state": upper and list(upper),
        "upper_weight": float(level.c_n) if upper else 0.0,
        "lower_state": lower and list(lower),
        "lower_weight": [lower_weight.real, lower_weight.imag],
        "n": level.n, "branch": level.branch, "spectator": spectator,
    }
    # both components lie in one J-sector: J = n_a - n_b, and one more down
    j = upper[0] - upper[1] if upper else lower[0] - lower[1] + 1
    return amplitudes, descriptor, j


# p^2 = m |wt| hbar [n_a + n_b + 1 + i(a† b† - a b)] and its ladder-form
# pieces (tests/reference.py, p_squared_ladder_form), each as its diagonal in
# (n_a, n_b) in units of m |wt| hbar:
#   ladder    2 m w hbar (a†a + a a†)   = 2 (2 n_a + 1)
#   position  -(m w)^2 z zbar           = -(n_a + n_b + 1) + i(a† b† - a b)
#   angular   2 m w L_z                 = 2 (n_b - n_a)
# The pair term i(a† b† - a b) moves n_a and n_b together, so it connects no
# two states of one spectator tower: on a tower every matrix element of p^2
# and of its pieces is diagonal.
_P2 = lambda n_a, n_b: float(n_a + n_b + 1)
_P2_TERMS = {
    "ladder": lambda n_a, n_b: 2.0 * (2 * n_a + 1),
    "position": lambda n_a, n_b: -float(n_a + n_b + 1),
    "angular": lambda n_a, n_b: 2.0 * (n_b - n_a),
}


def _shift(p: ModelParams, state: list, term=_P2) -> complex:
    """-<state|T|state> / (m hbar wt): an expectation value of H' in shift units."""
    total = sum((x.conjugate() * term(n_a, n_b) * x for x, n_a, n_b in state), 0j)
    return -math.copysign(1.0, p.omega_tilde) * total


def level_rows(
    space: FockSpace,
    p: ModelParams,
    levels: int,
    branches: Sequence[str],
    window: float,
) -> list[dict]:
    """Closed-form levels n = 0 .. levels against the exact a = 0 spectrum.

    One row per (n, branch), n outermost: the closed-form energy
    (`landau_level`), the nearest eigenvalue of the interior spectrum, their
    relative error, over an energy of at least 1e-30 m c^2, and the number
    of eigenvalues within `window`, in units of m c^2, of the closed-form
    energy. A window below the noise floor, or a level n = `levels` outside
    the interior, raises UsageError before anything is solved; so does a
    nearest eigenvalue beyond the float range. Both columns come from one
    `model.level_windows` call on the a = 0 config, which picks the route.
    """
    _check_window(window)
    _check_headroom(space, levels, 0)
    cells = [(n, branch, landau_level(p, n, branch))
             for n in range(levels + 1) for branch in branches]
    windows = level_windows(space, sector_terms(space, p, 0.0),
                            [analytic / p.rest_energy for *_, analytic in cells], window)
    floor = 1e-30 * p.rest_energy
    rows = []
    for (n, branch, analytic), (nearest, count) in zip(cells, windows):
        nearest *= p.rest_energy
        if not math.isfinite(nearest):
            raise UsageError(f"the exact eigenvalue nearest level (n={n}, branch "
                             f"{branch}) overflows at rest energy {p.rest_energy!r}")
        rows.append({
            "n": n,
            "branch": branch,
            "analytic": analytic,
            "exact_nearest": nearest,
            "rel_error": abs(nearest - analytic) / max(abs(analytic), floor),
            "multiplicity": count,
        })
    return rows


def _level_index(p: ModelParams, j: int, row: list[tuple[float, int]],
                 energy: float) -> int:
    """The index in J-sector j's ascending a = 0 spectrum `row`, in units of
    m c^2 and as runs of one eigenvalue each, of its one eigenvalue within
    CLUSTER_WINDOW of `energy`."""
    h, level = ORACLE_STEP, energy / p.rest_energy
    index, hits = nearest_level(row, level, CLUSTER_WINDOW)
    near = f"within {CLUSTER_WINDOW:.3e} m c^2 of {level!r} m c^2"
    if hits == 0:
        raise ComputationError(f"no eigenvalue of J-sector {j} {near}")
    if hits > 1:
        raise UsageError(
            f"oracle stencil step {h!r}/(m c) cannot tell apart the {hits} "
            f"eigenvalues of J-sector {j} {near}"
        )
    return index


def _slope(p: ModelParams, w: list[float], energy: float) -> float:
    """d(E)/d(a) of one eigenvalue in shift units, from its values `w`, in
    units of m c^2, at alpha = h, -h, 2h, -2h with h = ORACLE_STEP: central
    differences through a = 0 with one Richardson step, d(E / m c^2)/d(alpha)
    / lam."""
    h = ORACLE_STEP
    # float arithmetic: an overflow is inf and inf - inf nan, with no warning
    d1 = (w[0] - w[1]) / (2.0 * h)
    d2 = (w[2] - w[3]) / (4.0 * h)
    slope = (4.0 * d1 - d2) / 3.0
    if not math.isfinite(slope):
        raise UsageError(
            f"oracle stencil step {h!r}/(m c) is below the resolution of the "
            f"spectrum at {energy / p.rest_energy!r} m c^2: its finite differences "
            "are not finite"
        )
    return slope / p.lam


def _agrees(slope: float, shift: float) -> bool:
    """Whether an oracle slope agrees with its shift to ORACLE_RTOL relative."""
    return abs(slope - shift) <= ORACLE_RTOL * abs(shift)


def oracle_check(
    space: FockSpace, p: ModelParams, reports: Sequence[PTReport]
) -> list[PTReport]:
    """Checked copies of `reports`: each shift's finite-difference slope set,
    and each shift it does not agree with (`_agrees`) flagged after the
    report's own flags. The inputs are left as they are.

    `reports` are all the built shift reports of one command. The slope of
    shift i is that of the one eigenvalue of its state's J-sector,
    `sectors[i]`, within CLUSTER_WINDOW m c^2 of the unperturbed energy.
    The five stencil strengths are reduced to their block terms once, and
    each J-sector the reports name is built once, as one `model.SectorBand`
    at the a = 0 couplings. Its closed-form a = 0 eigenvalues (`levels`)
    give each shift the index of its eigenvalue, for every report before
    anything is solved: ComputationError when no eigenvalue lies in the
    window, and UsageError when several do, which the stencil step cannot
    tell apart. Then the same band gives each index's eigenvalue at the
    four a != 0 strengths (`SectorBand.eigenvalue`, ComputationError unless
    certified), and nothing is kept after the call; UsageError when a
    slope's finite differences are not finite. A report that names no
    sector, as every report at the critical field, comes back unchanged.
    """
    picks, stencils = [[] for _ in reports], {}
    js = dict.fromkeys(j for report in reports for j in report.sectors)
    if js:
        zero, *strengths = (sector_terms(space, p, k * ORACLE_STEP)
                            for k in (0, 1, -1, 2, -2))
        bands = {j: SectorBand(space, zero[:2], j) for j in js}
        rows = {j: [(level, 1) for level, *_ in band.levels] for j, band in bands.items()}
        # (J-sector, index) of each shift's eigenvalue
        picks = [[(j, _level_index(p, j, rows[j], report.unperturbed_energy))
                  for j in report.sectors] for report in reports]
        wanted = dict.fromkeys(jk for pick in picks for jk in pick)
        stencils = {(j, k): [band.eigenvalue(deform, k) for *_, deform in strengths]
                    for j, band in bands.items() for jj, k in wanted if jj == j}
    checked = []
    for report, pick in zip(reports, picks):
        if pick:
            slopes = [_slope(p, stencils[jk], report.unperturbed_energy) for jk in pick]
            flags = [f"oracle slope {o!r} disagrees with shift {s!r}"
                     for s, o in zip(report.shifts, slopes) if not _agrees(o, s)]
            report = report.replace(oracle_slopes=slopes,
                                    discrepancy_flags=[*report.discrepancy_flags, *flags])
        checked.append(report)
    return checked


def _shift_report(space: FockSpace, p: ModelParams, label: str, n: int, branch: str,
                  spectators: Sequence[int], degenerate: bool) -> PTReport:
    """The first-order report of the states of level (n, branch) with the
    given spectator quanta.

    The level is looked up once, through the level gate `spinor_level`,
    and every spectator quantum is checked next, on both sides of the
    critical field. Both kinds sort the states' diagonal cluster matrix; a
    degenerate report carries the sorting permutation as its eigenvectors, a
    non-degenerate one, of a single state, the three-term breakdown of
    <p^2>. At the critical field every shift, and every oracle slope, is
    identically zero; elsewhere the report names each shift's J-sector, for
    `oracle_check`'s slopes.
    """
    size = len(spectators)
    level = spinor_level(p, n, branch)
    for k in spectators:
        if k < 0:
            raise UsageError(f"spectator quantum must be >= 0, got {k}")
        _check_headroom(space, n, k)
    if p.omega_tilde == 0.0:
        basis, js = [], []
        diagonal, off = [0j] * size, 0j
        # a unit of +0.0: the shift unit is -0.0 for a = -0.0
        unit, slopes = 0.0, [0.0] * size
        breakdown = dict.fromkeys(_P2_TERMS, 0.0)
        flags = ["critical field: oscillator coupling vanishes, all corrections are "
                 "identically zero"]
    else:
        states, basis, js = zip(*(_state_vector(p, level, k) for k in spectators))
        diagonal = [_shift(p, state) for state in states]
        # an off-diagonal element is -sign(wt) times an empty sum 0j
        off = -math.copysign(1.0, p.omega_tilde) * 0j
        if not degenerate:
            (state,) = states
            breakdown = {name: _shift(p, state, term).real
                         for name, term in _P2_TERMS.items()}
        unit, slopes = p.shift_unit, []
        flags = [OVER_CRITICAL] if p.omega_tilde < 0.0 else []
    sub = tuple(tuple(diagonal[r] if r == c else off for c in range(size))
                for r in range(size))
    order = sorted(range(size), key=lambda i: diagonal[i].real)
    shifts = [diagonal[i].real for i in order]
    sectors = [js[i] for i in order] if js else []
    # the identity's columns in that order: column c is 1 at row order[c]
    vectors = tuple(tuple(complex(r == i) for i in order) for r in range(size))
    if not all(math.isfinite(s * unit) for s in shifts):
        raise UsageError(f"shift energy of level (n={n}, branch {branch}) "
                         f"overflows at the unit {unit!r}")
    return PTReport(
        cluster_label=label,
        unperturbed_energy=level.energy,
        method="degenerate" if degenerate else "nondegenerate",
        subspace_basis=list(basis),
        subspace_matrix=sub,
        shifts=shifts,
        shifts_energy=[s * unit for s in shifts],
        oracle_slopes=slopes,
        discrepancy_flags=flags,
        breakdown=None if degenerate else breakdown,
        eigenvectors=vectors if degenerate else None,
        sectors=sectors,
    )


def first_order_shift(
    space: FockSpace,
    p: ModelParams,
    n: int,
    branch: str = POSITIVE,
    spectator: int = 0,
) -> PTReport:
    """Non-degenerate first-order correction <psi|H'|psi> for level n <= 1.

    The report carries the three-term breakdown of <p^2> (ladder, position,
    angular-momentum pieces) and no oracle slopes; `oracle_check` adds them.
    Levels with n >= 2 are degenerate beyond their spectator tower and must
    go through `degenerate_shift`.
    """
    if n >= 2:
        raise UsageError(f"level n={n} is degenerate; use degenerate_shift")
    return _shift_report(space, p, f"n={n}, branch {branch}", n, branch, [spectator],
                         degenerate=False)


def degenerate_shift(
    space: FockSpace,
    p: ModelParams,
    n: int,
    spectators: Iterable[int],
    branch: str = POSITIVE,
) -> PTReport:
    """First-order shifts of a degenerate cluster: H' restricted to the
    states of level (n, branch) with the given distinct spectator quanta.

    The cluster lists its states in the order of `spectators`. The pair term
    of p^2 connects no two states of one tower, so the cluster matrix is
    diagonal and no eigensolver runs: the shifts are its diagonal ascending,
    the eigenvectors the permutation that sorts it. There are no oracle
    slopes (`oracle_check` adds them).
    """
    spectators = list(spectators)
    if not spectators:
        raise UsageError("cluster must contain at least one member")
    if len(set(spectators)) != len(spectators):
        raise UsageError("cluster members must be distinct")
    label = "cluster " + ", ".join(f"(n={n},{branch},k={k})" for k in spectators)
    return _shift_report(space, p, label, n, branch, spectators, degenerate=True)


# Cyclic sweeps within which `_jacobi_eigh` must reduce a block to diagonal.
JACOBI_SWEEPS = 50


def _jacobi_eigh(block) -> tuple[list[float], list[list[complex]]]:
    """(eigenvalues, eigenvectors) of a Hermitian matrix, given as its rows,
    by cyclic Jacobi rotations in Python complex arithmetic, under the
    contract of `numerics.eigh`: eigenvalues ascending, column k of the rows
    of eigenvectors paired with eigenvalue k, each column's largest entry
    made real and positive (the first of equal ones; the others turn by the
    same phase, so their magnitudes change by roundoff), the spectral moments
    checked against the whole matrix (the trace within 1e-10 n, the squared
    Frobenius norm within DEFAULT_EIGH_TOL n, in units of max(1,
    ||A||_max)), every residual ||A v - w v||_2 within `residual_bound`
    and the columns orthonormal within 1e-10.

    UsageError for a block that is not a nonempty square matrix of finite
    numbers. Like LAPACK, the rotations read the lower triangle and the real
    part of the diagonal, so a block that is not Hermitian fails the moment
    check: ComputationError, as does any other broken contract.

    Each rotation zeroes one entry (p, q) = r e^{i phi}: the phase diag(1,
    e^{-i phi}) makes it real, and the real rotation of Rutishauser's
    formulas, t = tan(theta) with |t| <= 1, diagonalizes the 2x2 block.
    An entry too small to change either diagonal entry it couples, even a
    hundredfold, is set to zero without one.
    """
    try:
        rows = [[complex(x) for x in row] for row in block]
    except TypeError:  # not a matrix of numbers
        rows = []
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise UsageError("expected a nonempty square matrix of numbers")
    if not all(math.isfinite(x.real) and math.isfinite(x.imag) for row in rows for x in row):
        raise UsageError("matrix contains non-finite entries")
    d = [rows[i][i].real for i in range(n)]
    h = [[rows[i][j] if i > j else rows[j][i].conjugate() for j in range(n)]
         for i in range(n)]
    v = [[complex(i == j) for j in range(n)] for i in range(n)]
    pairs = [(p, q) for q in range(n) for p in range(q)]
    sweeps = 0
    while any(h[p][q] for p, q in pairs):
        if sweeps == JACOBI_SWEEPS:
            raise ComputationError(f"Jacobi rotations left off-diagonal entries after "
                                   f"{JACOBI_SWEEPS} sweeps")
        sweeps += 1
        for p, q in pairs:
            r = abs(h[p][q])
            g = 100.0 * r
            if abs(d[p]) + g != abs(d[p]) or abs(d[q]) + g != abs(d[q]):
                diff = d[q] - d[p]
                if abs(diff) + g == abs(diff):
                    t = r / diff
                else:
                    theta = 0.5 * diff / r
                    t = math.copysign(1.0 / (abs(theta) + math.hypot(1.0, theta)), theta)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s, phase = t * c, (h[p][q] / r).conjugate()
                d[p] -= t * r
                d[q] += t * r
                for j in range(n):
                    if j != p and j != q:
                        x, y = h[j][p], h[j][q]
                        h[j][p], h[j][q] = c * x - s * phase * y, s * x + c * phase * y
                        h[p][j], h[q][j] = h[j][p].conjugate(), h[j][q].conjugate()
                for row in v:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * phase * y, s * x + c * phase * y
            h[p][q] = h[q][p] = 0j
    order = sorted(range(n), key=d.__getitem__)
    w = [d[k] for k in order]
    columns = []
    for k in order:
        column = [row[k] for row in v]
        top = max(range(n), key=lambda i: abs(column[i]))  # the first of equal ones
        size = abs(column[top])
        if size > 0.0:
            column = [x * (column[top].conjugate() / size) for x in column]
            column[top] = complex(size)  # real, not real up to roundoff
        columns.append(column)
    # the moments, in units of s = max(1, ||A||_max), so nothing overflows
    largest = max(abs(x) for row in rows for x in row)
    scale = max(1.0, largest)
    trace_gap = abs(sum(x / scale for x in w) - sum(rows[i][i].real / scale for i in range(n)))
    moment_gap = abs(sum((x / scale) ** 2 for x in w)
                     - sum(abs(x / scale) ** 2 for row in rows for x in row))
    for gap, bound, message in (
        (trace_gap, 1e-10 * n, "eigenvalue sum deviates from trace by {:.3e} in "
                               "units of {:.3e}"),
        (moment_gap, DEFAULT_EIGH_TOL * n,
         "sum of squared eigenvalues deviates from the squared Frobenius norm by "
         "{:.3e} in units of {:.3e} squared"),
    ):
        if not gap <= bound:
            raise ComputationError(message.format(gap, scale))
    residual = max(math.hypot(*(abs(sum(a * y for a, y in zip(row, column)) - e * x)
                                for row, x in zip(rows, column)))
                   for e, column in zip(w, columns))
    bound = residual_bound(largest, n)
    if not residual <= bound:
        raise ComputationError(f"Jacobi residual {residual:.3e} exceeds bound {bound:.3e}")
    ortho = max(abs(sum(x.conjugate() * y for x, y in zip(a, b)) - (k == l))
                for k, a in enumerate(columns) for l, b in enumerate(columns))
    if not ortho <= 1e-10:
        raise ComputationError(f"eigenvector orthonormality defect {ortho:.3e}")
    return w, [list(row) for row in zip(*columns)]


def shifts_of_matrix(block, label: str = "stored block") -> PTReport:
    """Shifts of an externally supplied cluster matrix (already in shift
    units), a Hermitian matrix or its rows: the one report that runs an
    eigensolver, `_jacobi_eigh`, in pure Python."""
    values, vectors = _jacobi_eigh(block)
    return PTReport(
        cluster_label=label,
        unperturbed_energy=math.nan,
        method="degenerate",
        subspace_matrix=tuple(tuple(complex(x) for x in row) for row in block),
        shifts=values,
        eigenvectors=tuple(map(tuple, vectors)),
    )


def spectral_clusters(spectrum: Sequence[float], window: float) -> list[int]:
    """Multiplicities of the maximal runs closer than `window`, lowest first,
    in an ascending spectrum of finite floats.

    A run breaks wherever the gap between neighbours, inf where it
    overflows, exceeds the window; the first and the last eigenvalue bound
    the outer runs, and an empty spectrum has none.
    """
    n = len(spectrum)
    starts = [0, *(i for i in range(1, n) if spectrum[i] - spectrum[i - 1] > window), n]
    return [end - start for start, end in zip(starts, starts[1:])] if n else []


def _check_window(window: float) -> None:
    """Raise UsageError unless a window, in units of m c^2, is finite and at
    least the noise floor."""
    if not math.isfinite(window):
        raise UsageError(f"window {window!r} is not finite")
    if window < 1e-12:
        raise UsageError(f"window {window!r} below the numerical noise floor 1e-12")


def _histogram(spectrum: list[float], window: float) -> dict[int, int]:
    """{multiplicity: number of clusters}, ascending in the multiplicity."""
    return dict(sorted(Counter(spectral_clusters(spectrum, window)).items()))


def _scan_point(space: FockSpace, p: ModelParams) -> tuple[dict, list]:
    """A scan point's own steps: (point, the block terms of its configs at
    alpha = 0 and a m c), with no terms once the point records an error."""
    # every report key up front, in report order; a failed point keeps None
    point: dict = {"B": p.b_field, "omega_tilde": p.omega_tilde, "ground_shift": None,
                   "first_shift": None, "n2_shifts": None,
                   "degeneracy_counts_before": None, "degeneracy_counts_after": None}
    try:
        branch0 = POSITIVE if abs_level(p, 0, POSITIVE) is not None else NEGATIVE
        point["ground_shift"] = first_order_shift(space, p, 0, branch0).shifts_energy[0]
        point["first_shift"] = first_order_shift(space, p, 1).shifts_energy[0]
        # a negative shift unit (wt < 0) reverses the order of the energies
        cluster = degenerate_shift(space, p, 2, range(4))
        point["n2_shifts"] = sorted(cluster.shifts_energy)
        return point, [sector_terms(space, p, alpha) for alpha in (0.0, p.alpha_gup)]
    except (UsageError, ComputationError) as exc:
        point["error"] = str(exc)
    return point, []


def field_scan(
    space: FockSpace,
    base_params: ModelParams,
    b_values: list[float],
    degeneracy_window: float = CLUSTER_WINDOW,
) -> tuple[list[dict], float | None]:
    """Sweep the magnetic field: (points, critical field), one point per
    value as given (`scan` gives B-min to B-max, both exactly), errors kept
    per point, and the critical field None unless it lies within the values.

    The degeneracy window, in units of m c^2, which no field changes, is
    checked once, before the first point; one that is not finite or is below
    the noise floor raises UsageError. Each point then runs its own steps in
    input order: its shifts and the reduction of its two configs, at alpha =
    0 and a m c, to their block terms, and a point that fails records its
    first error. The histograms of the remaining points then come from
    shared passes over the J-sectors (`interior_spectrum`), one per group
    of max(1, `fock.stack_configs` // 2) points. A point's a = 0 config is
    `paired` off the critical field, and on it its two configs are one, so
    no pass stacks more configs than `stack_configs` allows. Each histogram
    is {multiplicity: number of clusters} of one spectrum. An error raised
    inside a shared pass is recorded on every point of that pass.
    """
    values = [float(b) for b in b_values]
    if any(b2 < b1 for b1, b2 in zip(values, values[1:])):
        raise UsageError("field values must be sorted ascending")
    _check_window(degeneracy_window)
    scanned = [_scan_point(space, base_params.with_field(b)) for b in values]
    pending = [(point, terms) for point, terms in scanned if "error" not in point]
    size = max(1, stack_configs(space.cutoff) // 2)  # two configs per point
    for i in range(0, len(pending), size):
        group = pending[i:i + size]
        try:
            spectra = interior_spectrum(space, [t for _, terms in group for t in terms])
        except (UsageError, ComputationError) as exc:
            for point, _ in group:
                point["error"] = str(exc)
            continue
        for (point, _), before, after in zip(group, spectra[::2], spectra[1::2]):
            point["degeneracy_counts_before"] = _histogram(before, degeneracy_window)
            point["degeneracy_counts_after"] = _histogram(after, degeneracy_window)
    critical = base_params.critical_field
    in_range = values and values[0] <= critical <= values[-1]
    return [point for point, _ in scanned], critical if in_range else None


def validation_report(space: FockSpace, p: ModelParams) -> dict:
    """Compare computed results against the stored reference values.

    Every row carries status MATCH or DISCREPANCY plus a code; codes in
    ALLOWLISTED_DISCREPANCIES are expected and do not fail validation.
    """
    # one row (row, computed, reference, detail, ok, code) per comparison
    table: list[tuple] = []

    # 1. closed-form levels against the exact interior spectrum
    for r in level_rows(space, p, 4, BRANCHES, CLUSTER_WINDOW):
        n, branch, rel = r["n"], r["branch"], r["rel_error"]
        table.append((f"level n={n} branch {branch}", r["exact_nearest"], r["analytic"],
                      f"relative error {rel:.3e}", rel <= 1e-8, f"level-{n}-{branch}"))

    # 2. ground-level shift and its oracle slope; 3. first excited level:
    # stored value vs the oracle-consistent one; 4. degenerate block:
    # own-basis matrix vs stored block
    ground, first, own = oracle_check(space, p, [
        first_order_shift(space, p, 0, POSITIVE),
        first_order_shift(space, p, 1, POSITIVE),
        degenerate_shift(space, p, 2, range(4)),
    ])
    (g,), (g_slope,) = ground.shifts, ground.oracle_slopes
    (f,), (f_slope,) = first.shifts, first.oracle_slopes

    stored = shifts_of_matrix(REFERENCE_DEGENERATE_BLOCK, "stored 4x4 block")
    own_set, stored_set = own.shifts, stored.shifts
    printed = sorted(REFERENCE_DEGENERATE_SHIFTS)
    vec = REFERENCE_DEGENERATE_EIGENVECTOR
    # the largest |(B v)_i - s v_i|; B v is exact, its entries sums of halves
    vec_err = max(abs(sum(b * x for b, x in zip(row, vec))
                      - REFERENCE_DEGENERATE_EIGENVECTOR_SHIFT * v)
                  for row, v in zip(REFERENCE_DEGENERATE_BLOCK, vec))

    # 5. critical field, against the field where |e| B / (m c) reaches 2 omega, exact
    # so nothing underflows: 2 omega m c / |e| as one ratio of integers, whose
    # true division rounds correctly; wt there is a difference of terms of size omega
    bc = p.critical_field
    (w, dw), (m, dm), (c, dc), (q, dq) = (
        x.as_integer_ratio() for x in (p.omega, p.mass, p.light_speed, p.charge))
    bc_ref = 2 * w * m * c * dq / (dw * dm * dc * q)
    wt_at_bc = p.with_field(bc).omega_tilde

    table += [
        ("ground-shift", g, REFERENCE_GROUND_SHIFT, f"units {SHIFT_UNITS}",
         abs(g - REFERENCE_GROUND_SHIFT) <= 1e-10, "ground-shift"),
        ("ground-shift-oracle", g_slope, g,
         "finite-difference slope of the exact spectrum",
         _agrees(g_slope, g), "ground-shift-oracle"),
        ("first-excited-shift", f, REFERENCE_FIRST_EXCITED_SHIFT,
         "stored reference value is not reproduced by the pinned constructions; "
         "both values shown",
         abs(f - REFERENCE_FIRST_EXCITED_SHIFT) <= 1e-6, "first-excited-shift"),
        ("first-excited-oracle", f_slope, f,
         "internal consistency of shift vs exact spectrum slope",
         _agrees(f_slope, f), "first-excited-oracle"),
        ("degenerate-block-basis", own_set, stored_set,
         "own-basis cluster matrix is diagonal in the spectator tower; stored "
         "block uses an unreconstructible basis",
         all(abs(a - b) <= 1e-6 for a, b in zip(own_set, stored_set)),
         "degenerate-block-basis"),
        ("degenerate-block-eigenvalues", stored_set, printed,
         "eigensolver on the stored block vs its expected shifts",
         all(abs(a - b) <= 5e-4 for a, b in zip(stored_set, printed)),
         "degenerate-block-eigenvalues"),
        ("degenerate-block-eigenvector", vec_err, 0.0,
         "(-1, 1, 0, 0) must map to -8 times itself",
         vec_err <= 1e-12, "degenerate-block-eigenvector"),
        ("critical-field", bc, bc_ref, f"reduced frequency at the critical field: {wt_at_bc!r}",
         math.isclose(bc, bc_ref, rel_tol=1e-12) and abs(wt_at_bc) <= 1e-12 * p.omega,
         "critical-field"),
    ]
    rows = [{"row": row, "computed": computed, "reference": reference, "detail": detail,
             "status": "MATCH" if ok else "DISCREPANCY", "code": None if ok else code}
            for row, computed, reference, detail, ok, code in table]
    failing = [
        r["code"]
        for r in rows
        if r["status"] != "MATCH" and r["code"] not in ALLOWLISTED_DISCREPANCIES
    ]
    return {
        "rows": rows,
        "allowlisted": sorted(ALLOWLISTED_DISCREPANCIES),
        "unexpected_discrepancies": failing,
        "passed": not failing,
        "own_block": own,
        "stored_block": stored,
    }
