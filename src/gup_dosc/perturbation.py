"""First-order corrections, the exact-diagonalization oracle, and scans.

Every perturbative number produced here is cross-checkable against an
independent path: first-order shifts come from matrix elements of the
perturbation over explicitly constructed eigenstates, while the oracle
(`oracle_check`) differentiates the exact eigenvalue of each state's own
J-sector with respect to the deformation parameter (Richardson-extrapolated
central differences through a = 0).

Shift bookkeeping: `shifts` are dimensionless multiples of the natural
correction scale a c m hbar wt (`SHIFT_UNITS`); `shifts_energy` are the same
numbers converted to energy for the configured deformation strength. Beyond
the critical field wt flips sign, the level structure mirrors between the
two boson modes, and the branch carrying the undisplaced rest-energy level
flips from + to -; reports flag this.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, UsageError
from .fock import FockSpace, stack_configs
from .model import interior_spectrum, sector_terms
from .numerics import eigh
from .params import (
    BRANCHES,
    CLUSTER_WINDOW,
    NEGATIVE,
    POSITIVE,
    ModelParams,
    SpinorLevel,
    abs_level,
    landau_level,
)

SHIFT_UNITS = "a·c·m·ħ·ω̃"
# Flag of every shift report beyond the critical field.
OVER_CRITICAL = ("over-critical: operator spectrum follows |wt| with mirrored "
                 "branches; closed-form levels use the signed frequency")

# Deformation steps (in units of alpha = a m c) for the oracle stencil.
ORACLE_STEP = 1e-5
# Relative agreement demanded between a shift and its oracle slope.
ORACLE_RTOL = 1e-6

# Reference values for the validation command: the degenerate second-level
# block quoted for this model (entries in units of a c m hbar wt), its
# expected shift set, and the expected first-excited and ground shifts.
REFERENCE_DEGENERATE_BLOCK = -0.5 * np.array(
    [
        [11.0, -5.0, -5.0, -5.0],
        [-5.0, 11.0, -5.0, -5.0],
        [-5.0, -5.0, 13.0, -5.0],
        [-5.0, -5.0, -5.0, 9.0],
    ],
    dtype=np.complex128,
)
REFERENCE_DEGENERATE_SHIFTS = (-8.7308, -8.0, -7.3192, 2.05)
REFERENCE_DEGENERATE_EIGENVECTOR = np.array([-1.0, 1.0, 0.0, 0.0])
REFERENCE_DEGENERATE_EIGENVECTOR_SHIFT = -8.0
REFERENCE_FIRST_EXCITED_SHIFT = -2.5
REFERENCE_GROUND_SHIFT = -1.0

# Validation rows allowed to disagree without failing the run: the stored
# first-excited value and the stored block are not reproducible from the
# constructions this package pins down (see README).
ALLOWLISTED_DISCREPANCIES = frozenset(
    {"first-excited-shift", "degenerate-block-basis"}
)


@dataclass
class PTReport:
    """One perturbation-theory result with its oracle cross-check."""

    cluster_label: str
    unperturbed_energy: float
    method: str
    subspace_basis: list[dict]
    subspace_matrix: np.ndarray
    shifts: list[float]
    shifts_energy: list[float]
    oracle_slopes: list[float]
    discrepancy_flags: list[str]
    breakdown: dict | None = None
    eigenvectors: np.ndarray | None = None
    # J = n_a - n_b + [spin down] of each shift's state, in shift order; empty
    # where no state is built (the critical field, an external block)
    sectors: list[int] = field(default_factory=list)


def critical_field(p: ModelParams) -> float:
    """Field at which the reduced frequency vanishes: `ModelParams.critical_field`,
    kept as a public name, which perfbench/verify.py imports; the package
    reads the property."""
    return p.critical_field


def level_exists(p: ModelParams, n: int, branch: str) -> bool:
    """Whether level (n, branch) exists in the operator model (`params.abs_level`)."""
    return abs_level(p, n, branch) is not None


def operator_level(p: ModelParams, n: int, branch: str) -> SpinorLevel:
    """Level data consistent with the assembled operators, `params.abs_level`,
    and the level gate: a level that does not exist raises UsageError."""
    if (level := abs_level(p, n, branch)) is None:
        raise UsageError(f"level (n={n}, branch {branch}) does not exist here")
    return level


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


def level_distances(spectrum: np.ndarray, energy: float) -> np.ndarray:
    """|spectrum - energy|. A distance beyond the float range, between
    energies of opposite sign near it, is inf: as far as any distance gets."""
    with np.errstate(over="ignore"):
        return np.abs(spectrum - energy)


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
    nearest eigenvalue beyond the float range.
    """
    _check_window(window)
    _check_headroom(space, levels, 0)
    spectrum = interior_spectrum(space, [sector_terms(space, p, 0.0)])[0]
    floor = 1e-30 * p.rest_energy
    rows = []
    for n in range(levels + 1):
        for branch in branches:
            analytic = landau_level(p, n, branch)
            distances = level_distances(spectrum, analytic / p.rest_energy)
            nearest = float(spectrum[int(np.argmin(distances))]) * p.rest_energy
            if not math.isfinite(nearest):
                raise UsageError(f"the exact eigenvalue nearest level (n={n}, branch "
                                 f"{branch}) overflows at rest energy {p.rest_energy!r}")
            rows.append({
                "n": n,
                "branch": branch,
                "analytic": analytic,
                "exact_nearest": nearest,
                "rel_error": abs(nearest - analytic) / max(abs(analytic), floor),
                "multiplicity": int(np.sum(distances <= window)),
            })
    return rows


def _sector_slope(p: ModelParams, j: int, w: np.ndarray, energy: float) -> float:
    """d(E)/d(a) of the one eigenvalue of J-sector j near `energy`, in shift
    units, from the sector's spectra `w`, in units of m c^2, at alpha = 0, h,
    -h, 2h, -2h with h = ORACLE_STEP: central differences through a = 0 with
    one Richardson step, d(E / m c^2)/d(alpha) / lam."""
    h, level = ORACLE_STEP, energy / p.rest_energy
    hits = np.flatnonzero(level_distances(w[0], level) <= CLUSTER_WINDOW)
    near = f"within {CLUSTER_WINDOW:.3e} m c^2 of {level!r} m c^2"
    if len(hits) == 0:
        raise ComputationError(f"no eigenvalue of J-sector {j} {near}")
    if len(hits) > 1:
        raise UsageError(
            f"oracle stencil step {h!r}/(m c) cannot tell apart the {len(hits)} "
            f"eigenvalues of J-sector {j} {near}"
        )
    (i,) = hits
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = (w[1, i] - w[2, i]) / (2.0 * h)
        d2 = (w[3, i] - w[4, i]) / (4.0 * h)
        slope = float((4.0 * d1 - d2) / 3.0)
    if not math.isfinite(slope):
        raise UsageError(
            f"oracle stencil step {h!r}/(m c) is below the resolution of the "
            f"spectrum at {level!r} m c^2: its finite differences are not finite"
        )
    return slope / p.lam


def _agrees(slope: float, shift: float) -> bool:
    """Whether an oracle slope agrees with its shift to ORACLE_RTOL relative."""
    return abs(slope - shift) <= ORACLE_RTOL * abs(shift)


def oracle_check(
    space: FockSpace, p: ModelParams, reports: Sequence[PTReport]
) -> list[PTReport]:
    """Set each shift's finite-difference slope, flag each shift it does not
    agree with (`_agrees`), and return the reports as a list.

    `reports` are all the built shift reports of one command. The slope of
    shift i is that of the one eigenvalue of its state's J-sector,
    `sectors[i]`, within CLUSTER_WINDOW m c^2 of the unperturbed energy.
    Every J-sector the reports name is solved once, at the five stencil
    strengths reduced to their block terms once, before any slope is taken;
    nothing is kept after the call. A report that names no sector, as every
    report at the critical field, keeps its slopes. Raises ComputationError
    when such a block holds no eigenvalue there, and UsageError when it holds
    several, which the stencil step cannot tell apart, or when the finite
    differences are not finite.
    """
    named = [report for report in reports if report.sectors]
    js = dict.fromkeys(j for report in named for j in report.sectors)
    if js:
        strengths = [sector_terms(space, p, k * ORACLE_STEP) for k in (0, 1, -1, 2, -2)]
        stencils = {j: interior_spectrum(space, strengths, [j]) for j in js}
    for report in named:
        report.oracle_slopes = [_sector_slope(p, j, stencils[j], report.unperturbed_energy)
                                for j in report.sectors]
        for s, o in zip(report.shifts, report.oracle_slopes):
            if not _agrees(o, s):
                report.discrepancy_flags.append(
                    f"oracle slope {o!r} disagrees with shift {s!r}"
                )
    return list(reports)


def _shift_report(space: FockSpace, p: ModelParams, label: str, n: int, branch: str,
                  spectators: Sequence[int], degenerate: bool) -> PTReport:
    """The first-order report of the states of level (n, branch) with the
    given spectator quanta.

    The level is looked up once, through the level gate `operator_level`,
    and every spectator quantum is checked next, on both sides of the
    critical field. Both kinds sort the states' diagonal cluster matrix; a
    degenerate report carries the sorting permutation as its eigenvectors, a
    non-degenerate one, of a single state, the three-term breakdown of
    <p^2>. At the critical field every shift, and every oracle slope, is
    identically zero; elsewhere the report names each shift's J-sector, for
    `oracle_check`'s slopes.
    """
    size = len(spectators)
    level = operator_level(p, n, branch)
    for k in spectators:
        if k < 0:
            raise UsageError(f"spectator quantum must be >= 0, got {k}")
        _check_headroom(space, n, k)
    if p.omega_tilde == 0.0:
        basis, js = [], []
        sub = np.zeros((size, size), dtype=np.complex128)
        # a unit of +0.0: the shift unit is -0.0 for a = -0.0
        unit, slopes = 0.0, [0.0] * size
        breakdown = dict.fromkeys(_P2_TERMS, 0.0)
        flags = ["critical field: oscillator coupling vanishes, all corrections are "
                 "identically zero"]
    else:
        states, basis, js = zip(*(_state_vector(p, level, k) for k in spectators))
        # an off-diagonal element is -sign(wt) times an empty sum 0j
        sub = np.full((size, size), -math.copysign(1.0, p.omega_tilde) * 0j)
        np.fill_diagonal(sub, [_shift(p, state) for state in states])
        if not degenerate:
            (state,) = states
            breakdown = {name: _shift(p, state, term).real
                         for name, term in _P2_TERMS.items()}
        unit, slopes = p.shift_unit, []
        flags = [OVER_CRITICAL] if p.omega_tilde < 0.0 else []
    order = np.argsort(sub.diagonal().real, kind="stable")
    shifts = sub.diagonal().real[order].tolist()
    sectors = [js[i] for i in order] if js else []
    vectors = np.eye(size, dtype=np.complex128)[:, order]
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


def shifts_of_matrix(block: np.ndarray, label: str = "stored block") -> PTReport:
    """Shifts of an externally supplied cluster matrix (already in shift units)."""
    values, vectors = eigh(block)
    return PTReport(
        cluster_label=label,
        unperturbed_energy=math.nan,
        method="degenerate",
        subspace_basis=[],
        subspace_matrix=np.asarray(block, dtype=np.complex128),
        shifts=[float(w) for w in values],
        shifts_energy=[],
        oracle_slopes=[],
        discrepancy_flags=[],
        eigenvectors=vectors,
    )


def spectral_clusters(spectrum: np.ndarray, window: float) -> np.ndarray:
    """Multiplicities of the maximal runs closer than `window`, lowest first.

    A run breaks wherever `np.diff` of the ascending spectrum, inf where it
    overflows, exceeds the window; the infinite gaps before the first and
    after the last eigenvalue bound the outer runs, and an empty spectrum
    has none.
    """
    w = np.asarray(spectrum, dtype=float)
    with np.errstate(over="ignore"):
        gaps = np.diff(w, prepend=-np.inf, append=np.inf)
    return np.diff(np.flatnonzero(gaps > window))


def _check_window(window: float) -> None:
    """Raise UsageError unless a window, in units of m c^2, is finite and at
    least the noise floor."""
    if not math.isfinite(window):
        raise UsageError(f"window {window!r} is not finite")
    if window < 1e-12:
        raise UsageError(f"window {window!r} below the numerical noise floor 1e-12")


def _histogram(spectrum: np.ndarray, window: float) -> dict[int, int]:
    sizes, counts = np.unique(spectral_clusters(spectrum, window), return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


def _scan_point(space: FockSpace, p: ModelParams) -> tuple[dict, list]:
    """A scan point's own steps: (point, the block terms of its configs at
    alpha = 0 and a m c), with no terms once the point records an error."""
    # every report key up front, in report order; a failed point keeps None
    point: dict = {"B": p.b_field, "omega_tilde": p.omega_tilde, "ground_shift": None,
                   "first_shift": None, "n2_shifts": None,
                   "degeneracy_counts_before": None, "degeneracy_counts_after": None}
    try:
        branch0 = POSITIVE if level_exists(p, 0, POSITIVE) else NEGATIVE
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
    value, errors kept per point, and the critical field None unless it lies
    within the values.

    The degeneracy window, in units of m c^2, which no field changes, is
    checked once, before the first point; one that is not finite or is below
    the noise floor raises UsageError. Each point then runs its own steps in
    input order: its shifts and the reduction of its two configs, at alpha =
    0 and a m c, to their block terms, and a point that fails records its
    first error. The histograms of the remaining points then come from
    shared passes over the J-sectors, each of as many points as
    `fock.stack_configs` allows, which bounds how many spectra are held at
    once (identical blocks, such as the two of a point at the critical
    field, are solved once). Each histogram is {multiplicity: number of
    clusters} of one spectrum. An error raised inside a shared pass is
    recorded on every point of that pass.
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
        for (point, _), (before, after) in zip(group, spectra.reshape(len(group), 2, -1)):
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
    own_set, stored_set = np.array(own.shifts), np.array(stored.shifts)
    printed = np.array(sorted(REFERENCE_DEGENERATE_SHIFTS))
    vec = REFERENCE_DEGENERATE_EIGENVECTOR
    image = REFERENCE_DEGENERATE_BLOCK @ vec
    vec_err = float(np.max(np.abs(image - REFERENCE_DEGENERATE_EIGENVECTOR_SHIFT * vec)))

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
        ("degenerate-block-basis", own_set.tolist(), stored_set.tolist(),
         "own-basis cluster matrix is diagonal in the spectator tower; stored "
         "block uses an unreconstructible basis",
         np.all(np.abs(own_set - stored_set) <= 1e-6), "degenerate-block-basis"),
        ("degenerate-block-eigenvalues", stored_set.tolist(), printed.tolist(),
         "eigensolver on the stored block vs its expected shifts",
         np.all(np.abs(stored_set - printed) <= 5e-4), "degenerate-block-eigenvalues"),
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
