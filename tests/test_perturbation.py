import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gup_dosc import fock, model, numerics, perturbation
from gup_dosc.cli import dump_matrix, main
from gup_dosc.errors import ComputationError, UsageError
from gup_dosc.fock import FockSpace, sector_cost, stack_configs
from gup_dosc.model import (
    SectorBand,
    interior_spectrum,
    paired,
    sector_stacks,
    sector_terms,
)
from gup_dosc.numerics import eigvalsh, norm_max
from gup_dosc.params import BRANCHES, CLUSTER_WINDOW, ModelParams, abs_level, spinor_level
from gup_dosc.perturbation import (
    ORACLE_RTOL,
    ORACLE_STEP,
    PTReport,
    REFERENCE_DEGENERATE_BLOCK,
    _agrees,
    _slope,
    critical_field,
    degenerate_shift,
    field_scan,
    first_order_shift,
    level_rows,
    oracle_check,
    shifts_of_matrix,
    spectral_clusters,
    validation_report,
)
from reference import (
    Space,
    angular_momentum,
    band_matrix,
    degeneracy_histogram_loop,
    followed_eigenvalues,
    frame,
    ladder_a,
    p_squared,
    position_ops,
    spectral_clusters_loop,
)

SPACE = FockSpace(cutoff=12)
PARAMS = ModelParams(omega=0.1, b_field=0.0, gup_a=1e-4)


def test_ground_breakdown_sums_to_total():
    r = first_order_shift(SPACE, PARAMS, 0, "+")
    total = sum(r.breakdown.values())
    assert total == pytest.approx(r.shifts[0], abs=1e-12)
    # pure upper state: no orbital angular momentum contribution
    assert r.breakdown["angular"] == pytest.approx(0.0, abs=1e-14)


def test_both_branches_reported_independently():
    # independent ladder-algebra oracle: <p^2> = c1^2 (2 m w h) + d1^2 (m w h)
    plus, minus = oracle_check(SPACE, PARAMS, [first_order_shift(SPACE, PARAMS, 1, b)
                                               for b in ("+", "-")])
    c_plus = spinor_level(PARAMS, 1, "+").c_n
    c_minus = spinor_level(PARAMS, 1, "-").c_n
    assert plus.shifts[0] == pytest.approx(-(1.0 + c_plus ** 2), abs=1e-13)
    assert minus.shifts[0] == pytest.approx(-(1.0 + c_minus ** 2), abs=1e-13)
    assert plus.shifts[0] != minus.shifts[0]
    for r in (plus, minus):
        assert abs(r.oracle_slopes[0] - r.shifts[0]) <= 1e-6 * abs(r.shifts[0])
        assert not r.discrepancy_flags


def test_degenerate_levels_are_rejected():
    with pytest.raises(UsageError, match="degenerate_shift"):
        first_order_shift(SPACE, PARAMS, 2, "+")


def test_degenerate_cluster_matrix_is_diagonal_in_spectator_tower():
    r = degenerate_shift(SPACE, PARAMS, 2, range(4))
    matrix = np.array(r.subspace_matrix)
    off = matrix - np.diag(np.diag(matrix))
    assert norm_max(off) <= 1e-13
    c2 = spinor_level(PARAMS, 2, "+").c_n
    expected = sorted(-(2.0 + k + c2 ** 2) for k in range(4))
    assert r.shifts == pytest.approx(expected, abs=1e-12)


def test_degenerate_cluster_is_distinct_states_of_one_level():
    p = ModelParams(omega=1.0, b_field=1.0)
    with pytest.raises(UsageError, match="distinct"):
        degenerate_shift(SPACE, p, 2, [0, 0])
    with pytest.raises(UsageError, match="at least one member"):
        degenerate_shift(SPACE, p, 2, [])


@pytest.mark.parametrize("b_field", [1.0, 2.0, 3.0])  # wt = 0.5, 0 and -0.5
def test_both_report_kinds_go_through_one_level_path(b_field):
    # a one-state cluster is the non-degenerate report of that state in all
    # but its kind: method, breakdown, eigenvectors and label
    p = ModelParams(omega=1.0, b_field=b_field, gup_a=1e-4)
    # the matrix is compared below, through its dump, which keeps signed zeros
    apart = {"cluster_label", "method", "breakdown", "eigenvectors", "subspace_matrix"}
    compared = [name for name in PTReport._fields if name not in apart]
    for n, branch, k in itertools.product((0, 1), BRANCHES, (0, 2)):
        if abs_level(p, n, branch) is None:
            continue
        one = first_order_shift(SPACE, p, n, branch, k)
        cluster = degenerate_shift(SPACE, p, n, [k], branch)
        for name in compared:
            assert repr(getattr(cluster, name)) == repr(getattr(one, name)), name
        assert dump_matrix(cluster.subspace_matrix) == dump_matrix(one.subspace_matrix)
        assert cluster.cluster_label == f"cluster (n={n},{branch},k={k})"
    # the spectators keep their given order in the label and the basis
    r = degenerate_shift(SPACE, ModelParams(omega=1.0, b_field=1.0), 2, [3, 0, 1])
    assert r.cluster_label == "cluster (n=2,+,k=3), (n=2,+,k=0), (n=2,+,k=1)"
    assert [state["spectator"] for state in r.subspace_basis] == [3, 0, 1]


def test_reports_compare_by_value():
    # a report's matrices are tuples of rows, so == compares whole reports,
    # their 4x4 matrices and eigenvectors included, where arrays of more than
    # one entry would raise ValueError
    p = ModelParams(omega=1.0, b_field=1.0, gup_a=1e-4)
    for build in (lambda: degenerate_shift(SPACE, p, 2, range(4)),
                  lambda: shifts_of_matrix(REFERENCE_DEGENERATE_BLOCK)):
        report, again = build(), build()
        assert len(report.subspace_matrix) == len(report.eigenvectors) == 4
        assert report is not again and report == again
        shifts = list(report.shifts)
        shifts[1] += 1.0
        assert report.replace(shifts=shifts) != again


def test_the_stored_block_solver_keeps_the_error_kinds_of_eigh():
    # numerics.eigh's cases: a non-finite or non-square block is a usage
    # error; the rotations read the lower triangle, the identity here, so
    # one that is not Hermitian fails the second-moment check, which reads
    # the whole block and finds the 5 above the diagonal
    with pytest.raises(UsageError, match="non-finite"):
        shifts_of_matrix(np.array([[np.nan, 0], [0, 1.0]]))
    for block in (np.ones((2, 3)), np.ones((2, 3, 3)), np.ones(3), []):
        with pytest.raises(UsageError, match="square matrix"):
            shifts_of_matrix(block)
    with pytest.raises(ComputationError, match="^sum of squared eigenvalues deviates"):
        shifts_of_matrix(np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_jacobi_rotations_left_unfinished_are_an_internal_error(monkeypatch):
    # with no sweep allowed, a block with an entry off its diagonal is
    # refused; a diagonal one needs no rotation
    monkeypatch.setattr(perturbation, "JACOBI_SWEEPS", 0)
    with pytest.raises(ComputationError, match=re.escape(
            "Jacobi rotations left off-diagonal entries after 0 sweeps")):
        shifts_of_matrix(REFERENCE_DEGENERATE_BLOCK)
    assert shifts_of_matrix(2.5 * np.eye(4)).shifts == [2.5] * 4


def test_a_jacobi_residual_over_its_bound_is_an_internal_error(monkeypatch):
    # the stored block's eigenvalues are not all floats, so no residual of
    # its eigenpairs meets a zero bound
    monkeypatch.setattr(perturbation, "residual_bound", lambda *args: 0.0)
    with pytest.raises(ComputationError, match=r"^Jacobi residual \S+ exceeds bound "
                                               r"0\.000e\+00$"):
        shifts_of_matrix(REFERENCE_DEGENERATE_BLOCK)


def test_oracle_flags_shifts_paired_with_another_members_sector():
    # swapped shifts keep the cluster's set of shifts, which a nearest match
    # over all its slopes accepts; each must meet its own member's slope. The
    # check returns a checked copy and leaves its input as it was, so a second
    # call flags the same two shifts
    r = degenerate_shift(SPACE, PARAMS, 2, range(4))
    r.shifts[0], r.shifts[1] = r.shifts[1], r.shifts[0]
    given = repr(r)
    for _ in range(2):
        (checked,) = oracle_check(SPACE, PARAMS, [r])
        flagged = [f for f in checked.discrepancy_flags if "disagrees" in f]
        assert len(flagged) == 2
        assert sorted(checked.oracle_slopes) == pytest.approx(sorted(r.shifts), rel=1e-6)
    assert r.oracle_slopes == [] and r.discrepancy_flags == [] and repr(r) == given


def _histograms(space, p, window):
    """(before, after) degeneracy histograms of a one-point scan at p's field,
    with the window `window` in units of m c^2."""
    (point,), _ = field_scan(space, p, [p.b_field], window)
    assert "error" not in point
    return point["degeneracy_counts_before"], point["degeneracy_counts_after"]


def _point_spectra(space, p):
    """The spectra a scan point at p solves, at a = 0 and a = p.gup_a, in
    units of m c^2."""
    return interior_spectrum(space, [sector_terms(space, p, a) for a in (0.0, p.alpha_gup)])


def test_field_scan_histograms_split_lowest_tower():
    before, after = _histograms(SPACE, PARAMS, 1e-9)
    tower = SPACE.cutoff - 1
    assert before.get(tower, 0) >= 2  # rest-energy towers on both signs
    w0, w1 = _point_spectra(SPACE, PARAMS)
    clusters0 = {round(e, 9): m for e, m in spectral_clusters_loop(w0, 1e-9)}
    assert clusters0[1.0] == tower
    clusters1 = [m for e, m in spectral_clusters_loop(w1, 1e-9) if abs(e - 1.0) < 1e-3]
    assert max(clusters1) < tower  # the tower split
    assert sum(after.values()) > sum(before.values())


def test_degeneracy_window_floor():
    with pytest.raises(UsageError, match="noise floor"):
        field_scan(SPACE, PARAMS, [0.0], 1e-16)


@pytest.mark.parametrize("window", [np.nan, np.inf])
def test_a_window_that_is_not_finite_is_a_usage_error(window):
    # NaN and +inf both pass a bare floor test, and would give empty
    # histograms and level rows of multiplicity 0
    message = f"window {window!r} is not finite"
    with pytest.raises(UsageError, match=message):
        field_scan(FockSpace(8), ModelParams(omega=1.0, gup_a=1e-4), [0.0, 1.0], window)
    with pytest.raises(UsageError, match=message):
        level_rows(SPACE, PARAMS, 2, BRANCHES, window)


@pytest.mark.parametrize("params", [
    dict(omega=0.0, charge=1e-300, mass=1e30, gup_a=1e-4),
    # lambda = 0.1: validate reaches its critical-field row
    dict(omega=1e-20, charge=5e-324, mass=1e11, light_speed=1e-10, hbar=1e10, gup_a=1e-5),
], ids=["zero-omega", "resolved-levels"])
def test_the_critical_field_row_holds_where_the_cyclotron_rate_underflows(params):
    # |e| / (m c) underflows to 0 in floats, where dividing by it would raise
    # ZeroDivisionError; the reference field is exact, and B_c correct
    p = ModelParams(**params)
    assert p.charge / (p.mass * p.light_speed) == 0.0
    result = validation_report(SPACE, p)
    (row,) = [r for r in result["rows"] if r["row"] == "critical-field"]
    assert row["status"] == "MATCH" and row["computed"] == critical_field(p)
    assert row["reference"] == pytest.approx(row["computed"], rel=1e-15)
    assert "critical-field" not in result["unexpected_discrepancies"]


def test_field_scan_keeps_errored_points():
    # cutoff too small for the second-level cluster: every point errors
    # but the record count is preserved
    space = FockSpace(cutoff=4)
    base = ModelParams(omega=1.0, gup_a=1e-4)
    points, _ = field_scan(space, base, [0.0, 1.0])
    assert len(points) == 2
    assert all("error" in pt for pt in points)
    assert all("B" in pt and "omega_tilde" in pt for pt in points)


def test_field_scan_rejects_unsorted_input():
    with pytest.raises(UsageError, match="ascending"):
        field_scan(SPACE, PARAMS, [1.0, 0.0])


def test_state_headroom_is_the_interior_margin():
    # n + spectator = 10 = cutoff - margin: the state lies in the interior
    # the oracle diagonalizes, so shift and slope agree
    (r,) = oracle_check(SPACE, PARAMS,
                        [first_order_shift(SPACE, PARAMS, 1, "+", spectator=9)])
    assert r.discrepancy_flags == []
    assert abs(r.oracle_slopes[0] - r.shifts[0]) <= ORACLE_RTOL * abs(r.shifts[0])
    with pytest.raises(UsageError, match="cutoff 12"):
        first_order_shift(SPACE, PARAMS, 1, "+", spectator=10)


def test_level_rows_stop_at_the_interior_top(monkeypatch):
    # cutoff 10 leaves the interior n_a + n_b <= 8: level 8 (spectator 0) is
    # exact, and level 9 is rejected before anything is solved
    space, p = FockSpace(cutoff=10), ModelParams(omega=1.0, b_field=1.0)
    rows = level_rows(space, p, 8, ("+", "-"), CLUSTER_WINDOW)
    assert [(r["n"], r["branch"]) for r in rows[-2:]] == [(8, "+"), (8, "-")]
    assert all(r["rel_error"] <= 1e-15 and r["multiplicity"] == 1 for r in rows[-2:])
    monkeypatch.setattr(perturbation, "level_windows",
                        lambda *args: pytest.fail("a spectrum was solved"))
    with pytest.raises(UsageError, match=re.escape(
            "state (n=9, spectator=0) too close to cutoff 10; raise the cutoff")):
        level_rows(space, p, 9, ("+",), CLUSTER_WINDOW)


@pytest.mark.parametrize("cutoff", [4, 40, 200])
def test_chain_counts_hold_up_to_the_float_range_of_their_pivots(cutoff):
    # at the critical field every J-sector with one more up state than down
    # states holds one at +1 exactly, and far from the other eigenvalues at
    # large couplings, so a level row counts those alone, up to couplings of
    # about 4e292 m c^2 at the narrowest window; beyond, where the window
    # falls below the pivot floor of the scaled chains, it is a usage error
    space = FockSpace(cutoff)
    unmatched = sum(max(0, len(space.line(j)) - len(space.line(j - 1)))
                    for j in space.sectors)
    for coupling in (1e10, 1e150, 1e290):
        p = ModelParams(omega=coupling, hbar=coupling, b_field=2.0 * coupling)
        k_a, k_b, _ = sector_terms(space, p, 0.0)
        assert k_a == k_b and math.isclose(k_a, coupling, rel_tol=1e-15)
        rows = level_rows(space, p, 1, BRANCHES, 1e-12)
        assert [r["multiplicity"] for r in rows] == [unmatched] * 4, coupling
    p = ModelParams(omega=1e295, hbar=1e295, b_field=2e295)
    with pytest.raises(UsageError, match=re.escape(
            "window 1e-12 m c^2 is below what the inertia counts resolve")):
        level_rows(space, p, 1, BRANCHES, 1e-12)


def test_window_count_refuses_windows_below_its_resolution():
    # window 2^-e >= WINDOW_FLOORS PIVMIN for a largest coupling below 2^e:
    # refused from 2^972 (about 4e292 m c^2) at the noise floor of 1e-12
    # and from 2^982 (about 4e295 m c^2) at CLUSTER_WINDOW = 1e-9
    for window, edge in ((1e-12, 2.0 ** 972), (CLUSTER_WINDOW, 2.0 ** 982)):
        below = math.nextafter(edge, 0.0)
        assert model.window_count([([1.0, -1.0], [0.0, below], [0.0, 0.0])], 1.0,
                                  window) == 0
        with pytest.raises(UsageError, match="below what the inertia counts resolve"):
            model.window_count([([1.0, -1.0], [0.0, edge], [0.0, 0.0])], 1.0, window)


def test_critical_field_level_row_with_no_eigenvalue_counted_is_an_error(monkeypatch):
    # a level row reports the level as its nearest eigenvalue only on a
    # count within the window, as the oracle's `_level_index` requires one
    monkeypatch.setattr(model, "window_count", lambda *args: 0)
    with pytest.raises(ComputationError, match="no eigenvalue counted within"):
        level_rows(FockSpace(12), ModelParams(omega=1.0, b_field=2.0), 0, BRANCHES,
                   CLUSTER_WINDOW)


def test_level_rows_relative_errors_do_not_depend_on_the_units():
    # m c^2 = hbar = 1e-40 keeps lambda = 0.5: each level's relative error is
    # the natural units' roundoff, not shrunk by an absolute energy floor
    scaled = ModelParams(omega=0.5, mass=1e-40, hbar=1e-40)
    natural = ModelParams(omega=0.5)
    assert scaled.lam == natural.lam
    errors = [[r["rel_error"] for r in level_rows(SPACE, p, 8, BRANCHES, CLUSTER_WINDOW)]
              for p in (scaled, natural)]
    assert max(errors[1]) > 0.0
    for a, b in zip(*errors):
        assert b / 4 <= a <= 4 * b


def test_over_critical_levels_mirror():
    p = ModelParams(omega=0.1, b_field=0.3, gup_a=1e-4)  # wt = -0.05
    assert p.omega_tilde == pytest.approx(-0.05)
    assert abs_level(p, 0, "+") is None
    level = spinor_level(p, 0, "-")
    assert level.energy == -p.rest_energy
    (r,) = oracle_check(SPACE, p, [first_order_shift(SPACE, p, 0, "-")])
    # natural-unit shift is still negative and proportional to |wt|
    assert r.shifts_energy[0] == pytest.approx(
        -p.gup_a * abs(p.omega_tilde), rel=1e-12
    )
    assert any("over-critical" in f for f in r.discrepancy_flags)
    assert abs(r.oracle_slopes[0] - r.shifts[0]) <= 1e-5 * abs(r.shifts[0])


# _state_vector's (amplitudes, descriptor, J) at wt = 0.5 (B = 1) and -0.5
# (B = 3), omega = 1, keyed by (wt, n, branch, spectator), by repr so that
# phases and signed zeros count: captured from the four-way branch that
# preceded `_placement`, whose states the reports keep byte for byte
STATE_VECTORS = {
    (0.5, 0, "+", 0): "([((1+0j), 0, 0)], {'upper_state': [0, 0], 'upper_weight': 1.0, 'lower_state': None, 'lower_weight': [0.0, 0.0], 'n': 0, 'branch': '+', 'spectator': 0}, 0)",
    (0.5, 0, "+", 3): "([((1+0j), 0, 3)], {'upper_state': [0, 3], 'upper_weight': 1.0, 'lower_state': None, 'lower_weight': [0.0, 0.0], 'n': 0, 'branch': '+', 'spectator': 3}, -3)",
    (0.5, 1, "+", 0): "([((0.8880738339771153+0j), 1, 0), ((0.45970084338098305+0j), 0, 0)], {'upper_state': [1, 0], 'upper_weight': 0.8880738339771153, 'lower_state': [0, 0], 'lower_weight': [0.45970084338098305, 0.0], 'n': 1, 'branch': '+', 'spectator': 0}, 1)",
    (0.5, 1, "+", 3): "([((0.8880738339771153+0j), 1, 3), ((0.45970084338098305+0j), 0, 3)], {'upper_state': [1, 3], 'upper_weight': 0.8880738339771153, 'lower_state': [0, 3], 'lower_weight': [0.45970084338098305, 0.0], 'n': 1, 'branch': '+', 'spectator': 3}, -2)",
    (0.5, 1, "-", 0): "([((-0.45970084338098305+0j), 1, 0), ((0.8880738339771153+0j), 0, 0)], {'upper_state': [1, 0], 'upper_weight': -0.45970084338098305, 'lower_state': [0, 0], 'lower_weight': [0.8880738339771153, 0.0], 'n': 1, 'branch': '-', 'spectator': 0}, 1)",
    (0.5, 1, "-", 3): "([((-0.45970084338098305+0j), 1, 3), ((0.8880738339771153+0j), 0, 3)], {'upper_state': [1, 3], 'upper_weight': -0.45970084338098305, 'lower_state': [0, 3], 'lower_weight': [0.8880738339771153, 0.0], 'n': 1, 'branch': '-', 'spectator': 3}, -2)",
    (0.5, 2, "+", 0): "([((0.8506508083520399+0j), 2, 0), ((0.5257311121191336+0j), 1, 0)], {'upper_state': [2, 0], 'upper_weight': 0.8506508083520399, 'lower_state': [1, 0], 'lower_weight': [0.5257311121191336, 0.0], 'n': 2, 'branch': '+', 'spectator': 0}, 2)",
    (0.5, 2, "+", 3): "([((0.8506508083520399+0j), 2, 3), ((0.5257311121191336+0j), 1, 3)], {'upper_state': [2, 3], 'upper_weight': 0.8506508083520399, 'lower_state': [1, 3], 'lower_weight': [0.5257311121191336, 0.0], 'n': 2, 'branch': '+', 'spectator': 3}, -1)",
    (0.5, 2, "-", 0): "([((-0.5257311121191336+0j), 2, 0), ((0.8506508083520399+0j), 1, 0)], {'upper_state': [2, 0], 'upper_weight': -0.5257311121191336, 'lower_state': [1, 0], 'lower_weight': [0.8506508083520399, 0.0], 'n': 2, 'branch': '-', 'spectator': 0}, 2)",
    (0.5, 2, "-", 3): "([((-0.5257311121191336+0j), 2, 3), ((0.8506508083520399+0j), 1, 3)], {'upper_state': [2, 3], 'upper_weight': -0.5257311121191336, 'lower_state': [1, 3], 'lower_weight': [0.8506508083520399, 0.0], 'n': 2, 'branch': '-', 'spectator': 3}, -1)",
    (-0.5, 0, "-", 0): "([((1+0j), 0, 0)], {'upper_state': None, 'upper_weight': 0.0, 'lower_state': [0, 0], 'lower_weight': [1.0, 0.0], 'n': 0, 'branch': '-', 'spectator': 0}, 1)",
    (-0.5, 0, "-", 3): "([((1+0j), 3, 0)], {'upper_state': None, 'upper_weight': 0.0, 'lower_state': [3, 0], 'lower_weight': [1.0, 0.0], 'n': 0, 'branch': '-', 'spectator': 3}, 4)",
    (-0.5, 1, "+", 0): "([((0.8880738339771153+0j), 0, 0), (0.45970084338098305j, 0, 1)], {'upper_state': [0, 0], 'upper_weight': 0.8880738339771153, 'lower_state': [0, 1], 'lower_weight': [0.0, 0.45970084338098305], 'n': 1, 'branch': '+', 'spectator': 0}, 0)",
    (-0.5, 1, "+", 3): "([((0.8880738339771153+0j), 3, 0), (0.45970084338098305j, 3, 1)], {'upper_state': [3, 0], 'upper_weight': 0.8880738339771153, 'lower_state': [3, 1], 'lower_weight': [0.0, 0.45970084338098305], 'n': 1, 'branch': '+', 'spectator': 3}, 3)",
    (-0.5, 1, "-", 0): "([((-0.45970084338098305+0j), 0, 0), (0.8880738339771153j, 0, 1)], {'upper_state': [0, 0], 'upper_weight': -0.45970084338098305, 'lower_state': [0, 1], 'lower_weight': [0.0, 0.8880738339771153], 'n': 1, 'branch': '-', 'spectator': 0}, 0)",
    (-0.5, 1, "-", 3): "([((-0.45970084338098305+0j), 3, 0), (0.8880738339771153j, 3, 1)], {'upper_state': [3, 0], 'upper_weight': -0.45970084338098305, 'lower_state': [3, 1], 'lower_weight': [0.0, 0.8880738339771153], 'n': 1, 'branch': '-', 'spectator': 3}, 3)",
    (-0.5, 2, "+", 0): "([((0.8506508083520399+0j), 0, 1), (0.5257311121191336j, 0, 2)], {'upper_state': [0, 1], 'upper_weight': 0.8506508083520399, 'lower_state': [0, 2], 'lower_weight': [0.0, 0.5257311121191336], 'n': 2, 'branch': '+', 'spectator': 0}, -1)",
    (-0.5, 2, "+", 3): "([((0.8506508083520399+0j), 3, 1), (0.5257311121191336j, 3, 2)], {'upper_state': [3, 1], 'upper_weight': 0.8506508083520399, 'lower_state': [3, 2], 'lower_weight': [0.0, 0.5257311121191336], 'n': 2, 'branch': '+', 'spectator': 3}, 2)",
    (-0.5, 2, "-", 0): "([((-0.5257311121191336+0j), 0, 1), (0.8506508083520399j, 0, 2)], {'upper_state': [0, 1], 'upper_weight': -0.5257311121191336, 'lower_state': [0, 2], 'lower_weight': [0.0, 0.8506508083520399], 'n': 2, 'branch': '-', 'spectator': 0}, -1)",
    (-0.5, 2, "-", 3): "([((-0.5257311121191336+0j), 3, 1), (0.8506508083520399j, 3, 2)], {'upper_state': [3, 1], 'upper_weight': -0.5257311121191336, 'lower_state': [3, 2], 'lower_weight': [0.0, 0.8506508083520399], 'n': 2, 'branch': '-', 'spectator': 3}, 2)",
}


def test_state_vectors_keep_their_placement():
    found = {}
    for (wt, b_field), n, branch, k in itertools.product(
            ((0.5, 1.0), (-0.5, 3.0)), (0, 1, 2), BRANCHES, (0, 3)):
        p = ModelParams(omega=1.0, b_field=b_field)
        assert p.omega_tilde == wt
        if (level := abs_level(p, n, branch)) is not None:
            found[(wt, n, branch, k)] = repr(perturbation._state_vector(p, level, k))
    assert found == STATE_VECTORS


def test_far_side_levels_are_the_near_side_levels_at_abs_lambda():
    # beyond the critical field at B = 2e208 (B_c = 2e100, lambda = -1): a
    # zero-field config with omega = |wt| and these m and c would have
    # 2 omega m c / |e| beyond the float range, yet no level depends on it;
    # the near-side config `near` shares |lambda| and m c^2 exactly
    p = ModelParams(omega=1.0, b_field=2e208, mass=1e200, light_speed=1e-100,
                    hbar=1e-108, gup_a=1e-104)
    near = ModelParams(omega=abs(p.omega_tilde), mass=p.rest_energy, hbar=p.hbar)
    assert p.omega_tilde < 0.0 < near.omega_tilde
    assert (near.lam, near.rest_energy) == (abs(p.lam), p.rest_energy)
    for n, branch in itertools.product((1, 2, 3), BRANCHES):
        assert spinor_level(p, n, branch) == spinor_level(near, n, branch)
    assert spinor_level(p, 0, "-").energy == -p.rest_energy
    # at lambda = -0.025, 0 < 1 + 4 lambda n < 1 for n = 1 and 2, where the
    # weights at the signed lambda have no real value: the level is still
    # the one at |lambda|
    slow = ModelParams(omega=0.05, b_field=0.15)
    slow_near = ModelParams(omega=abs(slow.omega_tilde))
    for n, branch in itertools.product((1, 2), BRANCHES):
        assert spinor_level(slow, n, branch) == spinor_level(slow_near, n, branch)
    # the level gate, below, at and beyond the critical field: abs_level's
    # level where it exists, and a UsageError exactly where it does not,
    # which is the rest level's other branch
    for q in (near, slow_near, ModelParams(omega=1.0, b_field=1.0),
              ModelParams(omega=1.0, b_field=2.0), ModelParams(omega=1.0, b_field=3.0),
              slow, p):
        absent = []
        for n, branch in itertools.product((0, 1, 2, 3), BRANCHES):
            if (level := abs_level(q, n, branch)) is not None:
                assert spinor_level(q, n, branch) == level
                continue
            absent.append((n, branch))
            with pytest.raises(UsageError, match=re.escape(
                    f"level (n={n}, branch {branch}) does not exist here")):
                spinor_level(q, n, branch)
        assert absent == [(0, "+" if q.omega_tilde < 0.0 else "-")]


@pytest.mark.parametrize("omega, b_field, off_diagonal", [
    pytest.param(1.0, 1.0, "-0+0i", id="1.0--0+0i"),
    pytest.param(1.0, 2.0, "0+0i", id="2.0-0+0i"),
    pytest.param(1.0, 3.0, "0+0i", id="3.0-0+0i"),
    # beyond the critical field 0.6, where the diagonal ascends in k
    pytest.param(0.3, 1.0, "0+0i", id="omega-0.3-1.0-0+0i"),
])
def test_shift_reports_keep_their_kind_and_signed_zeros(omega, b_field, off_diagonal):
    p = ModelParams(omega=omega, b_field=b_field, gup_a=1e-4)
    # a one-member cluster is a degenerate report, with 1x1 eigenvectors,
    # on either side of the critical field and at it
    one = degenerate_shift(SPACE, p, 2, range(1))
    assert one.method == "degenerate" and one.breakdown is None
    assert np.shape(one.eigenvectors) == (1, 1)
    level = first_order_shift(SPACE, p, 1)
    assert level.method == "nondegenerate" and level.eigenvectors is None
    assert list(level.breakdown) == ["ladder", "position", "angular"]
    # an off-diagonal element of the cluster matrix is -sign(wt) 0j, and a
    # plain zero at the critical field
    pair = degenerate_shift(SPACE, p, 2, range(2)).subspace_matrix
    entries = [row.split() for row in dump_matrix(pair).split("\n")]
    assert entries[0][1] == entries[1][0] == off_diagonal
    # no eigensolver: the shifts are the diagonal sorted, bit for bit, and
    # the eigenvectors the identity's columns in that order, every zero +0
    for r in (one, degenerate_shift(SPACE, p, 2, range(4))):
        diagonal = np.array(r.subspace_matrix).diagonal().real
        assert r.shifts == sorted(diagonal.tolist())
        permutation = np.eye(len(diagonal), dtype=complex)[:, np.argsort(diagonal,
                                                                         kind="stable")]
        assert dump_matrix(r.eigenvectors) == dump_matrix(permutation)
        assert np.array_equal(r.eigenvectors, permutation)


def test_shifts_vanish_at_critical_field():
    p = ModelParams(omega=1.0, b_field=2.0, gup_a=1e-3)
    (r,) = oracle_check(SPACE, p, [first_order_shift(SPACE, p, 0, "+")])
    assert r.shifts == [0.0] and r.shifts_energy == [0.0]
    assert r.oracle_slopes == [0.0]
    assert any("critical field" in f for f in r.discrepancy_flags)
    # each report keeps the level energy of its states, -m c^2 on branch -
    assert r.unperturbed_energy == p.rest_energy
    assert first_order_shift(SPACE, p, 1, "-").unperturbed_energy == -p.rest_energy
    assert degenerate_shift(SPACE, p, 2, range(4), "-").unperturbed_energy == -p.rest_energy


@pytest.mark.parametrize("b_field", [1.0, 2.0, 3.0])  # wt = 0.5, 0 and -0.5
def test_members_are_checked_on_both_sides_of_the_critical_field(b_field):
    p = ModelParams(omega=1.0, b_field=b_field, gup_a=1e-4)
    absent = "+" if b_field > 2.0 else "-"  # the rest-energy level's other branch
    with pytest.raises(UsageError, match=re.escape(
            f"level (n=0, branch {absent}) does not exist here")):
        first_order_shift(SPACE, p, 0, absent)
    with pytest.raises(UsageError, match="spectator quantum must be >= 0, got -1"):
        first_order_shift(SPACE, p, 1, "+", spectator=-1)
    with pytest.raises(UsageError, match=re.escape(
            "state (n=1, spectator=10) too close to cutoff 12")):
        first_order_shift(SPACE, p, 1, "+", spectator=10)


def test_closed_form_shifts_match_dense_reference_algebra():
    # the ladder-form pieces of p^2, built densely in tests/reference.py,
    # against the closed-form matrix elements used for shifts, breakdowns
    # and clusters
    space = Space(cutoff=8, include_spin=True)
    sless = space.without_spin()
    for p in (PARAMS, ModelParams(omega=1.0, b_field=3.0, gup_a=1e-4)):
        osc = frame(p)
        w = abs(p.omega_tilde)
        a_op = ladder_a(sless)
        z, zbar = position_ops(sless, osc)
        pieces = {
            "ladder": 2.0 * p.mass * w * p.hbar
            * (a_op.conj().T @ a_op + a_op @ a_op.conj().T),
            "position": -((p.mass * w) ** 2) * (z @ zbar),
            "angular": 2.0 * p.mass * w * angular_momentum(sless, hbar=p.hbar),
        }
        pieces = {k: np.kron(np.eye(2), v) for k, v in pieces.items()}
        p2 = np.kron(np.eye(2), p_squared(sless, osc))
        scale = p.mass * p.hbar * p.omega_tilde

        def dense(vec, op, other=None):
            other = vec if other is None else other
            return -(vec.conj() @ op @ other) / scale

        def vector(desc):
            # the dense state from the basis descriptor the report carries
            vec = np.zeros(space.dim, dtype=complex)
            if desc["upper_state"] is not None:
                vec[space.index(*desc["upper_state"], spin_up=True)] = desc["upper_weight"]
            if desc["lower_state"] is not None:
                vec[space.index(*desc["lower_state"], spin_up=False)] = complex(
                    *desc["lower_weight"]
                )
            return vec

        branch0 = "+" if abs_level(p, 0, "+") is not None else "-"
        for n, branch in ((0, branch0), (1, "+"), (1, "-")):
            r = first_order_shift(space, p, n, branch, spectator=2)
            vec = vector(r.subspace_basis[0])
            assert r.shifts[0] == pytest.approx(dense(vec, p2).real, abs=1e-12)
            for name, op in pieces.items():
                assert r.breakdown[name] == pytest.approx(dense(vec, op).real, abs=1e-12)
        r = degenerate_shift(space, p, 2, range(4))
        vecs = [vector(desc) for desc in r.subspace_basis]
        ref = np.array([[dense(u, p2, v) for v in vecs] for u in vecs])
        assert norm_max(np.array(r.subspace_matrix) - ref) <= 1e-12


# wt = 1, 0.5, 0 (the critical field, where H' vanishes) and -0.5
SCAN_BASE = ModelParams(omega=1.0, gup_a=1e-4)
SCAN_FIELDS = [0.0, 1.0, 2.0, 3.0]


def _scan_configs():
    """The (params, alpha) configs a scan over SCAN_FIELDS reduces, in order."""
    params = [SCAN_BASE.with_field(b) for b in SCAN_FIELDS]
    return [(p, a) for p in params for a in (0.0, p.alpha_gup)]


def _scan_terms():
    """The block terms whose spectra a scan over SCAN_FIELDS solves, in order."""
    return [sector_terms(SPACE, p, a) for p, a in _scan_configs()]


@pytest.mark.parametrize("configs", [
    # five strengths of one field, as the oracle's stencil: wt > 0, wt < 0
    # (mirrored towers) and wt = 0, where H' vanishes
    *([(p, k * ORACLE_STEP) for k in (0, 1, -1, 2, -2)] for p in (
        PARAMS, PARAMS.with_field(0.3), PARAMS.with_field(0.2))),
    # a scan's, where the two configs of the critical field have equal terms
    _scan_configs(),
], ids=["wt-positive", "wt-negative", "critical-field", "scan"])
def test_interior_spectrum_rows_equal_one_config_solves(configs):
    # the configs solved in one pass over the J-sectors; each row must be
    # bitwise the spectrum solved on its own, and the J-sector pieces must be
    # bitwise pieces of the whole spectrum: the a = 0 eigenvalues of J's
    # `SectorBand` for a paired config, a row of the J-stack's one eigvalsh
    # call otherwise
    terms = [sector_terms(SPACE, p, a) for p, a in configs]
    rows = np.array(interior_spectrum(SPACE, terms))
    assert rows.shape == (len(terms), (SPACE.cutoff - 1) * SPACE.cutoff)
    for t, row in zip(terms, rows):
        assert np.array_equal(row, interior_spectrum(SPACE, [t])[0])
        assert np.all(np.diff(row) >= 0.0)
    sectors = [[_band_levels(SPACE, t, [j]) if paired(t) else w
                for t, w in zip(terms, eigvalsh(stack))]
               for j, stack in zip(SPACE.sectors, sector_stacks(SPACE, terms))]
    assert len(sectors) == 2 * SPACE.top + 2
    assert np.array_equal(np.sort(np.concatenate(sectors, axis=-1), axis=-1), rows)


def _count_eigvalsh(monkeypatch) -> list[int]:
    """Records the stack length of every eigvalsh call made by the solver."""
    calls = []

    def counting(a):
        calls.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(numerics, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("cutoff, base, fields", [
    # one-point scans: wt = 0.1, -0.05 (mirrored towers) and 0 (where H'
    # vanishes), and a = 0
    *((12, dict(omega=0.1, gup_a=1e-4), [b]) for b in (0.0, 0.3, 0.2)),
    (12, dict(omega=0.1, gup_a=0.0), [0.0]),
    (12, dict(omega=1.0, gup_a=1e-4), SCAN_FIELDS),
    # a c m hbar wt = 1e307 at B = 0: the n = 2 shift energies stay finite,
    # and the eigenvalues reach -1e308 in energy, -1e301 m c^2; the scan's
    # window and spectra are in units of m c^2, and a histogram reads only
    # the cluster sizes, so the scan runs without warnings
    (8, dict(omega=1.0, gup_a=1e300, mass=1e7), [0.0, 1.5, 3.0]),
], ids=["p0", "p1", "p2", "p3", "lambda-1", "near-the-float-maximum"])
@pytest.mark.parametrize("window", [1e-9, 1e-6, 1e-3])
def test_degeneracy_histograms_equal_the_per_cluster_loop(cutoff, base, fields, window):
    # every point's histograms, from the scan's shared pass, against the
    # loop over the spectra the point solves alone, and the cluster sizes
    # of those spectra against the loop's, in order
    space, base = FockSpace(cutoff), ModelParams(**base)
    points, _ = field_scan(space, base, fields, window)
    for pt in points:
        assert "error" not in pt
        spectra = _point_spectra(space, base.with_field(pt["B"]))
        assert (pt["degeneracy_counts_before"], pt["degeneracy_counts_after"]) == tuple(
            degeneracy_histogram_loop(w, window) for w in spectra)
        for w in spectra:
            loop = [m for _, m in spectral_clusters_loop(w, window)]
            assert spectral_clusters(w, window) == loop


def test_a_scan_solves_each_sector_once(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    field_scan(SPACE, SCAN_BASE, SCAN_FIELDS)
    # the a = 0 configs off the critical field (B = 0, 1, 3) are closed form,
    # with no eigensolver call; the other 4 distinct configs (the critical
    # field's two blocks are one) go in one stack per J-sector, 2 T + 2 = 22
    # of them at cutoff 12 (T = 10); one pass per point would make 4 x 22
    assert calls == [4] * 22


def test_each_config_is_reduced_to_its_terms_once(monkeypatch, tmp_path):
    reduced, built = [], []

    def reducing(space, p, a):
        reduced.append((p, a))
        return sector_terms(space, p, a)

    def building(space, terms):
        built.append(list(terms))
        return sector_stacks(space, terms)

    monkeypatch.setattr(perturbation, "sector_terms", reducing)
    monkeypatch.setattr(model, "sector_stacks", building)
    field_scan(SPACE, SCAN_BASE, SCAN_FIELDS)
    assert reduced == _scan_configs()
    # the three paired a = 0 configs are closed form; the other five,
    # the critical field's two among them, are 4 distinct terms in one pass
    (dense,) = built
    assert len(set(dense)) == len(dense) == 4
    terms = _scan_terms()
    assert set(dense) == {t for t in terms if not paired(t)}
    # the critical field's two configs share one row
    rows = interior_spectrum(SPACE, terms)
    assert terms[4] == terms[5] and np.array_equal(rows[4], rows[5])
    # a command reduces each config once, where it makes it: validate its
    # a = 0 level rows' one and the oracle's five stencil strengths, a scan
    # two per point, and correct and degenerate the five stencil strengths
    for argv, count in (
        (["validate", "--B", "1"], 6),
        (["scan", "--B-min", "0", "--B-max", "3", "--steps", "4"], 8),
        (["correct", "--B", "1", "--branch", "both"], 5),
        (["degenerate", "--B", "1"], 5),
    ):
        reduced.clear()
        assert main([*argv, "--omega", "1", "--gup-a", "1e-4", "--cutoff", "40",
                     "--output", str(tmp_path / "report")]) == 0
        assert len(reduced) == count, argv


def _record_oracle_bands(monkeypatch) -> list[tuple]:
    """Records every `SectorBand` the oracle builds, as (J, {index: the
    strengths of its `eigenvalue` calls}), in the order they are built."""
    bands = []

    class Recording(SectorBand):
        def __init__(self, space, couplings, j):
            super().__init__(space, couplings, j)
            self.solves = {}
            bands.append((j, self.solves))

        def eigenvalue(self, deform, k):
            self.solves.setdefault(k, []).append(deform)
            return super().eigenvalue(deform, k)

    monkeypatch.setattr(perturbation, "SectorBand", Recording)
    return bands


def _oracle_solves(bands) -> list[tuple]:
    """(J, strengths per index) of each recorded band: one eigenvalue call
    per (J, index) and distinct strength, so a band whose every index took
    the four a != 0 strengths reads (J, 4)."""
    for _, solves in bands:
        assert all(len(set(deforms)) == len(deforms) for deforms in solves.values())
    return [(j, *{len(deforms) for deforms in solves.values()}) for j, solves in bands]


def test_each_run_solves_its_own_oracle_stencil(monkeypatch, tmp_path):
    calls = _count_eigvalsh(monkeypatch)
    bands = _record_oracle_bands(monkeypatch)

    def run(command, b):
        calls.clear()
        bands.clear()
        assert main([command, "--omega", "1", "--B", b, "--gup-a", "1e-4", "--cutoff",
                     "12", "--branch", "both", "--output", str(tmp_path / "report")]) == 0
        # no dense block and no LAPACK call: the a = 0 rows are closed form
        # and the oracle's eigenvalues come from the J-band
        assert calls == []
        return _oracle_solves(bands)

    # one band per distinct J-sector of the reported states: J = 0 for
    # (n=0, +), and J = 1 once for both (n=1, +) and (n=1, -); a second run
    # in the same process builds them again. Each index is solved at the
    # four a != 0 strengths; its a = 0 eigenvalue is the band's closed form
    for command in ("correct", "correct"):
        assert run(command, "1") == [(0, 4), (1, 4)]
        assert [len(solves) for _, solves in bands] == [1, 2]
    # validate's a = 0 level rows are closed form; its ground (J = 0), first
    # excited (J = 1) and four n = 2 states (by ascending shift J = -1, 0, 1,
    # 2) then need four distinct J-sectors, each solved once
    assert run("validate", "1") == [(0, 4), (1, 4), (-1, 4), (2, 4)]
    # at the critical field every shift vanishes and nothing is solved
    for command in ("correct", "degenerate"):
        assert run(command, "2") == []


def test_correct_at_a_large_cutoff_solves_only_the_sectors_of_its_states(
        monkeypatch, tmp_path):
    bands = _record_oracle_bands(monkeypatch)
    monkeypatch.setattr(model, "sector_stacks",
                        lambda *args: pytest.fail("a dense J-block was built"))
    assert main(["correct", "--omega", "1", "--B", "1", "--gup-a", "1e-4", "--cutoff",
                 "400", "--branch", "both", "--output", str(tmp_path / "report")]) == 0
    # J = 0 and 1, of (n=0, +) and both n = 1 branches, are the largest
    # blocks, 399 states, each built once as a band and solved at its four
    # a != 0 strengths (the a = 0 one is closed form); no dense block is
    # built, and the other 796 J-sectors are never solved
    assert _oracle_solves(bands) == [(0, 4), (1, 4)]


def test_an_oracle_slope_agrees_to_one_part_in_a_million():
    # the agreement rule's threshold by its value, on either side of a shift
    shift = -1.5
    assert _agrees(shift * (1.0 + 5e-7), shift) and _agrees(shift * (1.0 - 5e-7), shift)
    assert not _agrees(shift * (1.0 + 2e-6), shift)
    assert not _agrees(shift * (1.0 - 2e-6), shift)


def test_the_oracle_slope_is_exact_on_a_cubic():
    # on E(alpha) = 1 + lam s alpha + 1e6 alpha^2 + 1e6 alpha^3 the central
    # difference at h is off by the cubic's 1e6 h^2 = 1e-4, and the
    # Richardson step cancels it: what is left is roundoff
    p, h, s = ModelParams(omega=1.0, b_field=1.0), Fraction(ORACLE_STEP), 1.25
    lam = Fraction(p.lam)
    w = [float(1 + lam * Fraction(s) * a + 10**6 * a**2 + 10**6 * a**3)
         for a in (h, -h, 2 * h, -2 * h)]
    assert _slope(p, w, 1.0) == pytest.approx(s, rel=1e-9)


def test_an_inconsistent_count_is_an_internal_error(monkeypatch, capsys):
    # every inertia count 0, whatever its shift: at the critical field the
    # window around +-1 m c^2, itself an eigenvalue, counts none, and
    # `validate` stops with status 3 and a JSON body on stderr
    monkeypatch.setattr(model, "_count", lambda *args: 0)
    assert main(["validate", "--omega", "1", "--B", "2", "--gup-a", "1e-4",
                 "--cutoff", "12"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "no eigenvalue counted within 1e-09 m c^2 of level 1.0 m c^2",
        "kind": "computation"}


def test_a_residual_over_its_bound_is_a_refusal(monkeypatch, capsys):
    # no residual meets a zero bound: the band cannot follow the ground
    # state (n=0, +), a = 0 eigenpair 5 of J-sector 0, to the oracle's first
    # strength, and `correct` refuses in one line
    monkeypatch.setattr(model, "residual_bound", lambda *args: 0.0)
    assert main(["correct", "--omega", "1", "--B", "1", "--gup-a", "1e-4",
                 "--cutoff", "12"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"usage error: oracle stencil step cannot follow eigenvalue 5 of "
                        r"J-sector 0 to deform = -alpha \|lam\| = \S+ m c\^2\n", err), err


def test_band_eigenvalues_are_certified_or_refused_at_any_strength(monkeypatch):
    # at lambda = 0.5, as in the README, in J-sectors 0 and 1: at the
    # oracle's four strengths every a = 0 eigenpair is followed by inverse
    # iteration alone, within 1e-13 of numpy's eigenvalue of the state that
    # it continues, and no eigenvalue takes an inertia count. From roundoff
    # to far beyond the band's own scale, and with entries that leave no
    # headroom, every eigenvalue is the dense one within 1e-13 of the band's
    # scale, or a one-line refusal where the band cannot follow it, which a
    # perturbation of the band never meets, or a ComputationError, never a
    # bare arithmetic error
    monkeypatch.setattr(model, "_count", lambda *args: pytest.fail("an inertia count was taken"))
    space, p = FockSpace(cutoff=12), ModelParams(omega=1.0, b_field=1.0)
    stencil = [sector_terms(space, p, step * ORACLE_STEP)[2] for step in (1, -1, 2, -2)]
    for j in (0, 1):
        band = SectorBand(space, sector_terms(space, p, 0.0)[:2], j)
        for deform in (*stencil, 1e-300, -1e-16, -0.3, 10.0, 1e6, -1e150, 1e307):
            if deform == 1e307:
                # refused up front where 4 dim ||A|| leaves the float range
                with pytest.raises(ComputationError, match=rf"^J-sector {j}: band entries of "
                                   ".* leave no headroom in the float range$"):
                    band.eigenvalue(deform, 0)
                continue
            scale = 1.0 if deform in stencil else max(
                1.0, norm_max(band_matrix(band.entries(deform))))
            for k, followed in enumerate(followed_eigenvalues(band, deform)):
                try:
                    assert abs(band.eigenvalue(deform, k) - followed) <= 1e-13 * scale, (
                        j, deform, k)
                except UsageError as exc:
                    assert str(exc) == (f"oracle stencil step cannot follow eigenvalue {k} "
                                        f"of J-sector {j} to deform = -alpha |lam| = "
                                        f"{deform!r} m c^2")
                    assert abs(deform) > 1e-5, (j, deform, k)


def _band_levels(space, terms, js) -> list[float]:
    """The ascending a = 0 eigenvalues of the `SectorBand`s of the J in
    `js`, for a paired config's terms: its spectrum over those J-sectors."""
    return sorted(level for j in js for level, *_ in SectorBand(space, terms[:2], j).levels)


def _dense_rows(space, terms, js=None):
    """Sorted rows of the `sector_stacks` blocks of the J in `js` (every
    J-sector by default), each J-stack in one eigvalsh call: the dense path,
    whatever the terms."""
    stacks = [stack for j, stack in zip(space.sectors, sector_stacks(space, terms))
              if js is None or j in js]
    return np.sort(np.concatenate([eigvalsh(s) for s in stacks], axis=-1), axis=-1)


# the production cutoff, beyond the dense reference's reach: against the
# J-sector blocks of the dense route
@pytest.mark.parametrize("cutoff", [40])
@pytest.mark.parametrize("b_field", [1.0, 3.0])  # wt = 0.5 and wt = -0.5
def test_paired_spectra_equal_the_dense_blocks(cutoff, b_field, monkeypatch):
    space = FockSpace(cutoff)
    p = ModelParams(omega=1.0, b_field=b_field, gup_a=1e-4)
    (terms,) = {sector_terms(space, p, a) for a in (0.0, -0.0)}
    assert paired(terms)
    top = cutoff - fock.INTERIOR_MARGIN
    calls = _count_eigvalsh(monkeypatch)
    # every J-sector (the route table), and the two outermost ones and the
    # two at J = 0, 1, alone and together (the bands' a = 0 eigenvalues)
    for js in (None, [-top], [top + 1], [0, 1], [-top, 0, 1, top + 1]):
        row = np.array(interior_spectrum(space, [terms])[0] if js is None
                       else _band_levels(space, terms, js))
        # closed form: no eigensolver call and no J-block built
        assert calls == []
        (dense,) = _dense_rows(space, [terms], js)
        assert row.shape == dense.shape and np.all(np.diff(row) >= 0.0)
        assert np.max(np.abs(row - dense), initial=0.0) <= 1e-12
    # the a = 0 spectrum is the same on either side of the critical field:
    # the pair roots k sqrt(i), i = 1 .. T, each T - i + 1 times, mirror
    mirror = ModelParams(omega=1.0, b_field=4.0 - b_field)
    assert np.array_equal(interior_spectrum(space, [terms]),
                          interior_spectrum(space, [sector_terms(space, mirror, 0.0)]))


@pytest.mark.parametrize("p", [ModelParams(omega=0.0)], ids=["no-coupling"])
def test_uncoupled_configs_take_the_closed_form(p, monkeypatch):
    # omega = 0 at B = 0, the critical field, couples nothing and H' vanishes
    # there: every block is diagonal +-1, and the closed form is the dense
    # blocks' spectrum bit for bit, with no eigensolver call
    space = FockSpace(cutoff=12)
    terms = sector_terms(space, p, 1e-4)
    assert terms == (0.0, 0.0, 0.0) and paired(terms)
    calls = _count_eigvalsh(monkeypatch)
    (row,) = np.array(interior_spectrum(space, [terms]))
    assert calls == []
    (dense,) = _dense_rows(space, [terms])
    assert row.shape == dense.shape
    assert np.array_equal(row.view(np.int64), dense.view(np.int64))


@pytest.mark.parametrize("p, a", [
    (ModelParams(omega=1.0, b_field=2.0), 0.0),  # wt = 0: both couplings
    (ModelParams(omega=1.0, b_field=1.0), 1e-4),
    (ModelParams(omega=1.0, b_field=3.0), -1e-4),
], ids=["critical-field", "wt-positive-deformed", "wt-negative-deformed"])
def test_unpaired_configs_take_the_dense_blocks(p, a, monkeypatch):
    space = FockSpace(cutoff=12)
    terms = sector_terms(space, p, a)
    assert not paired(terms)
    shapes = []

    def recording(h):
        shapes.append(h.shape)
        return eigvalsh(h)

    monkeypatch.setattr(numerics, "eigvalsh", recording)
    row = interior_spectrum(space, [terms])
    # one one-config stack per J-sector, of its full dimension
    stacks = sector_stacks(space, [terms])
    assert shapes == [stack.shape for stack in stacks]
    assert np.array_equal(row, _dense_rows(space, [terms]))


@pytest.mark.parametrize("cutoff", [40, 200])
def test_paired_scan_histograms_equal_the_dense_ones(cutoff):
    space = FockSpace(cutoff)
    fields = [1.0, 2.0, 3.0]  # across the critical field B = 2
    points, critical_b = field_scan(space, SCAN_BASE, fields)
    assert critical_b == 2.0
    window = CLUSTER_WINDOW
    for pt in points:
        (before,) = _dense_rows(space, [sector_terms(space, SCAN_BASE.with_field(pt["B"]), 0.0)])
        assert pt["degeneracy_counts_before"] == degeneracy_histogram_loop(before, window)


def test_a_paired_spectrum_holds_no_block_stack():
    # a = 0 at cutoff 300, on either side of the critical field: the closed
    # form holds its row, a list that repeats the float of each run of equal
    # eigenvalues, never a stack of blocks (9x the row before) or an array
    # over the (n_a, n_b) grid
    space = FockSpace(cutoff=300)
    for b_field in (1.0, 3.0):
        terms = sector_terms(space, ModelParams(omega=1.0, b_field=b_field), 0.0)
        tracemalloc.start()
        try:
            (row,) = interior_spectrum(space, [terms])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the bytes the row takes as a float64 array
        assert peak <= 4 * 8 * len(row)


def test_one_config_per_stack_changes_no_row(monkeypatch):
    scan = field_scan(SPACE, SCAN_BASE, SCAN_FIELDS)
    monkeypatch.setattr(fock, "STACK_BYTES", sector_cost(SPACE.cutoff)[1])
    assert stack_configs(SPACE.cutoff) == 1
    calls = _count_eigvalsh(monkeypatch)
    # a group of one point: its a != 0 config in a pass of its own, its a = 0
    # config in closed form; the critical field's two equal configs are one,
    # solved once, although no two configs share a stack
    assert field_scan(SPACE, SCAN_BASE, SCAN_FIELDS) == scan
    assert calls == [1] * 22 * 4


def test_a_failed_shared_pass_is_recorded_on_its_points(monkeypatch):
    def failing(a):
        raise ComputationError("eigensolver did not converge")

    monkeypatch.setattr(numerics, "eigvalsh", failing)
    points, critical_b = field_scan(SPACE, SCAN_BASE, SCAN_FIELDS)
    assert critical_b == 2.0
    for pt in points:
        assert pt["error"] == "eigensolver did not converge"
        assert pt["n2_shifts"] is not None and pt["degeneracy_counts_before"] is None
    # a point's own first error comes before the shared pass: at cutoff 5
    # the n = 2 cluster no longer fits, and its members are checked at the
    # critical field too, where the shifts are zero reports
    points, _ = field_scan(FockSpace(cutoff=5), SCAN_BASE, SCAN_FIELDS)
    assert [pt["error"] for pt in points] == [
        "state (n=2, spectator=2) too close to cutoff 5; raise the cutoff"] * 4
    # two configs per stack: the scan goes in two passes of two points
    # each, and a failure of the second is recorded on its points only
    monkeypatch.setattr(fock, "STACK_BYTES", 2 * sector_cost(SPACE.cutoff)[1])
    calls = []

    def second_pass_fails(a):
        calls.append(len(a))
        # the first pass: 22 J-sectors at cutoff 12, its two paired configs
        # in closed form
        if len(calls) > 22:
            raise ComputationError("eigensolver did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(numerics, "eigvalsh", second_pass_fails)
    points, critical_b = field_scan(SPACE, SCAN_BASE, SCAN_FIELDS)
    # the second pass fails on its first call, J-sector -10 of its two
    # distinct configs, the critical field's and B = 3's a != 0 one
    assert calls == [2] * 22 + [2]
    assert [pt.get("error") for pt in points] == [None, None] + [
        "eigensolver did not converge"] * 2
    for pt in points[:2]:  # each histogram counts every interior state
        for key in ("degeneracy_counts_before", "degeneracy_counts_after"):
            assert sum(m * k for m, k in pt[key].items()) == 11 * 12
    assert [pt["degeneracy_counts_after"] for pt in points[2:]] == [None, None]


def test_scan_points_report_an_overflowing_deformation():
    # a = 1e307: the sector diagonal 1 + a m c |wt| hbar (cutoff - 1) exceeds
    # the float range except at the critical field, where H' vanishes
    base = ModelParams(omega=1.0, gup_a=1e307)
    points, _ = field_scan(FockSpace(cutoff=40), base, SCAN_FIELDS)
    for pt in points:
        assert pt["n2_shifts"] is not None
        if pt["B"] == 2.0:
            assert "error" not in pt
            assert pt["degeneracy_counts_before"] == {4: 380, 20: 2}
            assert pt["degeneracy_counts_after"] == {4: 380, 20: 2}
        else:
            assert pt["error"].startswith("sector diagonal")
            assert pt["degeneracy_counts_after"] is None
