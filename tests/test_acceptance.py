"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
success). The heavy criteria use the production cutoff of 40 quanta per
mode; the whole module stays within a desk-scale runtime.
"""

import json

import numpy as np

from gup_dosc.cli import main
from gup_dosc.fock import FockSpace
from gup_dosc.model import interior_spectrum, sector_terms
from gup_dosc.numerics import eigh, eigvalsh, norm_max
from gup_dosc.params import ModelParams, landau_level
from gup_dosc.perturbation import (
    REFERENCE_DEGENERATE_BLOCK,
    REFERENCE_DEGENERATE_EIGENVECTOR,
    critical_field,
    degenerate_shift,
    field_scan,
    first_order_shift,
    oracle_check,
    shifts_of_matrix,
)
from reference import (
    OscParams,
    Space,
    adjoint,
    commutator,
    compress,
    ladder_a,
    ladder_b,
    momentum_ops,
    p_squared,
    p_squared_ladder_form,
    position_ops,
    spectral_clusters_loop,
)

PRODUCTION_CUTOFF = 40
# The stored block's shifts, frozen from its exact characteristic polynomial.
BLOCK_SHIFTS = [-8.7307879247336544, -8.0, -7.3192108377341745, 2.049998762467828]


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_analytic_spectrum_reproduction():
    space = FockSpace(cutoff=PRODUCTION_CUTOFF)
    ok = True
    for lam in (0.05, 0.1, 0.5):
        p = ModelParams(omega=lam)
        (w,) = np.array(interior_spectrum(space, [sector_terms(space, p, 0.0)]))
        for n in range(9):
            for branch in ("+", "-"):
                e = landau_level(p, n, branch)
                nearest = w[np.argmin(np.abs(w - e))]
                ok = ok and abs(nearest - e) <= 1e-8 * abs(e)
    _report(1, "analytic spectrum reproduction", ok)


def test_criterion_2_ground_state_correction():
    p = ModelParams(omega=0.1, b_field=0.0, gup_a=1e-4)
    ok = True
    for cutoff in (12, PRODUCTION_CUTOFF):
        space = FockSpace(cutoff=cutoff)
        (r,) = oracle_check(space, p, [first_order_shift(space, p, 0, "+")])
        ok = ok and r.shifts == [-1.0] and r.method == "nondegenerate"
        ok = ok and abs(r.shifts_energy[0] + p.shift_unit) <= 1e-14 * p.shift_unit
        slope = r.oracle_slopes[0]
        ok = ok and abs(slope - (-1.0)) <= 1e-6
    _report(2, "ground-state correction -1 with oracle slope", ok)


def test_criterion_3_degenerate_block_replication():
    r = shifts_of_matrix(REFERENCE_DEGENERATE_BLOCK)
    printed = sorted((-8.7308, -8.0, -7.3192, 2.05))
    ok = all(abs(s - e) <= 5e-4 for s, e in zip(r.shifts, printed))
    ok = ok and all(abs(s - e) <= 1e-12 for s, e in zip(r.shifts, BLOCK_SHIFTS))
    ok = ok and abs(sum(r.shifts) - (-22.0)) <= 1e-12
    vector = np.array(REFERENCE_DEGENERATE_EIGENVECTOR)
    image = np.array(REFERENCE_DEGENERATE_BLOCK) @ vector
    expected = -8.0 * vector
    ok = ok and norm_max(image - expected) <= 1e-12
    _report(3, "degenerate block eigenvalues and eigenvector", ok)


def test_criterion_4_critical_field():
    p = ModelParams(omega=1.0, gup_a=1e-4)
    ok = critical_field(p) == 2.0 and p.with_field(2.0).omega_tilde == 0.0
    ok = ok and critical_field(ModelParams(omega=0.0)) == 0.0
    space = FockSpace(cutoff=10)
    # the approach to B_c, and the fields B_c / 2 apart across it
    points, critical_b = field_scan(space, p, [0.0, 1.0, 1.9, 1.99, 1.999, 2.0, 3.0])
    ok = ok and [points[i]["omega_tilde"] for i in (0, 1, 5, 6)] == [1.0, 0.5, 0.0, -0.5]
    for pt in points:
        wt = pt["omega_tilde"]
        bound = p.alpha_gup * abs(wt) * (1 + 1e-6)
        ok = ok and abs(pt["ground_shift"]) <= bound
        if wt >= 0.0:
            ok = ok and abs(pt["ground_shift"] + p.gup_a * wt) <= max(1e-12 * p.gup_a * wt,
                                                                        1e-18)
    shifts = [pt["ground_shift"] for pt in points[2:6]]
    ok = ok and shifts[-1] == 0.0
    ok = ok and all(abs(a) > abs(b) for a, b in zip(shifts, shifts[1:]))
    ok = ok and critical_b == 2.0
    _report(4, "critical field and vanishing corrections", ok)


def test_criterion_5_degeneracy_lifting():
    space = FockSpace(cutoff=12)
    p = ModelParams(omega=0.1, gup_a=1e-4)
    # the whole interior tower: member k sits alone in J-sector -k, so each
    # shift meets its own block's slope
    size = space.cutoff - 1
    (tower,) = oracle_check(space, p, [degenerate_shift(space, p, 0, range(size))])
    expected = [-(k + 1.0) for k in reversed(range(size))]
    ok = np.allclose(tower.shifts, expected, atol=1e-12, rtol=0.0)
    ok = ok and len(set(np.round(tower.shifts, 9))) == size and not tower.discrepancy_flags
    ok = ok and len(tower.oracle_slopes) == size and all(
        abs(s - o) <= 1e-6 * abs(s) for s, o in zip(tower.shifts, tower.oracle_slopes))

    w0, w1 = interior_spectrum(space, [sector_terms(space, p, a) for a in (0.0, p.alpha_gup)])
    lll_before = [m for e, m in spectral_clusters_loop(w0, 1e-9) if abs(e - 1.0) < 1e-6]
    lll_after = [m for e, m in spectral_clusters_loop(w1, 1e-9) if abs(e - 1.0) < 2e-3]
    ok = ok and lll_before == [space.cutoff - 1]
    ok = ok and max(lll_after) < space.cutoff - 1

    p0 = ModelParams(omega=0.1, gup_a=0.0)
    (point,), _ = field_scan(space, p0, [0.0], degeneracy_window=1e-9)
    ok = ok and "error" not in point
    ok = ok and point["degeneracy_counts_before"] == point["degeneracy_counts_after"]
    _report(5, "lowest-level degeneracy lifting", ok)


def test_criterion_6_first_excited_replication_report(tmp_path):
    out = tmp_path / "validate.json"
    code = main(
        ["validate", "--omega", "1", "--B", "1", "--gup-a", "1e-4",
         "--cutoff", "14", "--levels", "4", "--format", "json",
         "--output", str(out)]
    )
    report = json.loads(out.read_text())
    rows = {r["row"]: r for r in report["rows"]}
    row = rows["first-excited-shift"]
    ok = code == 0
    ok = ok and row["status"] in ("MATCH", "DISCREPANCY")
    ok = ok and row["reference"] == -2.5 and row["computed"] is not None
    internal = rows["first-excited-oracle"]
    ok = ok and internal["status"] == "MATCH"
    ok = ok and abs(internal["computed"] - internal["reference"]) <= 1e-6 * abs(
        internal["reference"]
    )
    _report(6, "first-excited replication with internal consistency", ok)


def test_criterion_7_algebra_property_suite():
    osc = OscParams(mass=1.0, omega_tilde=0.5)
    unit = osc.mass * abs(osc.omega_tilde) * osc.hbar
    ok = True
    for cutoff in (10, 12):
        space = Space(cutoff=cutoff, include_spin=False)
        idx = space.interior_indices(2)
        eye = np.eye(space.dim)

        def inorm(m):
            return norm_max(compress(m, idx))

        a, b = ladder_a(space), ladder_b(space)
        for mode in (a, b):
            ok = ok and inorm(commutator(mode, adjoint(mode)) - eye) <= 1e-13
        # independent modes commute exactly, everywhere
        ok = ok and norm_max(commutator(a, b)) == norm_max(commutator(a, adjoint(b))) == 0.0

        direct = p_squared(space, osc)
        ladder_form = p_squared_ladder_form(space, osc)
        ok = ok and inorm(direct - ladder_form) <= 1e-10 * unit

        inner = compress(direct, idx)
        ok = ok and norm_max(inner - adjoint(inner)) <= 1e-13
        ok = ok and eigvalsh(inner)[0] >= -1e-12 * unit

        z, zbar = position_ops(space, osc)
        pz, pzbar = momentum_ops(space, osc)
        ok = ok and np.array_equal(adjoint(pz), pzbar)
        for q, p_q, p_other in ((z, pz, pzbar), (zbar, pzbar, pz)):
            ok = ok and inorm(commutator(q, p_q) - 1j * osc.hbar * eye) <= 1e-13
            ok = ok and inorm(commutator(q, p_other)) <= 1e-13
    _report(7, "operator algebra property suite", ok)


def test_criterion_8_eigensolver_contract():
    rng = np.random.default_rng(512)
    dims = [2, 512] + list(rng.integers(2, 513, size=98)) + [5, 8, 16, 33, 64]
    ok = True
    for dim in dims:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = 0.5 * (a + a.conj().T)
        w, v = eigh(a)
        scale = max(1.0, norm_max(a) * dim)
        residual = np.max(np.linalg.norm(a @ v - v * w, axis=0))
        ok = ok and residual <= 1e-10 * scale
        ortho = norm_max(v.conj().T @ v - np.eye(dim))
        ok = ok and ortho <= 1e-10
        ok = ok and bool(np.all(np.diff(w) >= 0))
        gap = abs(np.sum(w) - np.trace(a).real)
        ok = ok and gap <= 1e-10 * dim * max(1.0, norm_max(a))
    _report(8, "eigensolver residual, orthonormality and ascending-order contract", ok)


def test_criterion_9_linearity_and_determinism(tmp_path):
    space = FockSpace(cutoff=12)
    single = ModelParams(omega=0.1, gup_a=1e-4)
    double = ModelParams(omega=0.1, gup_a=2e-4)
    ok = True
    for params_pair in ((single, double),):
        p1, p2 = params_pair
        r1 = first_order_shift(space, p1, 1, "+")
        r2 = first_order_shift(space, p2, 1, "+")
        ok = ok and abs(r2.shifts_energy[0] - 2.0 * r1.shifts_energy[0]) <= (
            1e-12 * abs(r2.shifts_energy[0])
        )
        d1 = degenerate_shift(space, p1, 0, range(4))
        d2 = degenerate_shift(space, p2, 0, range(4))
        for a_shift, b_shift in zip(d1.shifts_energy, d2.shifts_energy):
            ok = ok and abs(b_shift - 2.0 * a_shift) <= 1e-12 * abs(b_shift)

    argv = ["validate", "--omega", "1", "--B", "1", "--gup-a", "1e-4",
            "--cutoff", "12", "--levels", "4", "--format", "json"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(argv + ["--output", str(out1)])
    main(argv + ["--output", str(out2)])
    ok = ok and out1.read_bytes() == out2.read_bytes()
    _report(9, "linearity in the deformation and byte-identical reports", ok)
