import ast
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

import gup_dosc
from gup_dosc.errors import ComputationError, UsageError
from gup_dosc.fock import (
    INTERIOR_MARGIN,
    MAX_CUTOFF,
    STACK_BYTES,
    FockSpace,
    sector_cost,
    stack_configs,
)
from gup_dosc.model import sector_stacks, sector_terms
from gup_dosc.numerics import eigvalsh, norm_max
from gup_dosc.params import ModelParams, abs_level, landau_level, spinor_level
from reference import (
    Space,
    adjoint,
    build_h0,
    build_h_prime,
    compress,
    sector_block,
    sector_indices,
    sector_j,
)

SPACE = Space(cutoff=12, include_spin=True)


def interior_eigs(h, space=SPACE, margin=2):
    return eigvalsh(compress(h, space.interior_indices(margin)))


def all_js(space):
    """Every J-sector of the interior, ascending: the J of `sector_stacks`."""
    top = space.cutoff - INTERIOR_MARGIN
    return range(-top, top + 2)


def test_reduced_frequency():
    assert ModelParams(omega=1.0, b_field=1.0).omega_tilde == 0.5
    assert ModelParams(omega=1.0, b_field=2.0).omega_tilde == 0.0
    assert ModelParams(omega=0.7, b_field=0.0).omega_tilde == 0.7
    # a value changed field by field leaves the original as it was
    p = ModelParams(omega=1.0, b_field=1.0)
    assert p.with_field(3.0).omega_tilde == -0.5 and p.omega_tilde == 0.5


def test_params_validation():
    with pytest.raises(UsageError):
        ModelParams(omega=-1.0)
    with pytest.raises(UsageError):
        ModelParams(omega=1.0, mass=0.0)
    with pytest.raises(UsageError):
        ModelParams(omega=1.0, gup_a=-1e-5)


@pytest.mark.parametrize(
    "name", ["omega", "b_field", "gup_a", "mass", "light_speed", "hbar", "charge"]
)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite(name, value):
    with pytest.raises(UsageError, match=f"{name} must be finite"):
        ModelParams(**{"omega": 1.0, name: value})


def test_landau_levels_closed_form():
    p = ModelParams(omega=0.1)  # lambda = 0.1 in natural units
    assert landau_level(p, 0, "+") == 1.0
    assert landau_level(p, 0, "-") == -1.0
    assert landau_level(p, 1, "+") == pytest.approx(1.1832159566199232, abs=1e-15)
    assert landau_level(p, 4, "-") == pytest.approx(-math.sqrt(2.6), abs=1e-15)


def test_landau_level_branch_collapse():
    p = ModelParams(omega=1.0, b_field=10.0)  # wt = -4
    with pytest.raises(ComputationError, match="branch collapse"):
        landau_level(p, 1, "+")


@pytest.mark.parametrize("p, rest", [
    (ModelParams(omega=5e307), "+"),  # lam = 5e307
    (ModelParams(omega=1.0, b_field=1e308), "-"),  # lam = -5e307, beyond B_c
], ids=["near-side", "far-side"])
def test_the_rest_level_stays_finite_where_4_lam_overflows(p, rest):
    # the radicand is 1 + 4 (lam n): at n = 0 it is 1 whatever lam, and at
    # n = 1 it overflows with 4 lam
    assert abs(p.lam) == 5e307 and math.isinf(4.0 * p.lam)
    level = abs_level(p, 0, rest)
    assert level.energy == (1.0 if rest == "+" else -1.0) * p.rest_energy
    with pytest.raises(UsageError, match=re.escape("1 + 4 lam n is not finite for level n=1")):
        abs_level(p, 1, rest)


def test_spinor_level_ground():
    p = ModelParams(omega=0.1)
    level = spinor_level(p, 0, "+")
    assert (level.c_n, level.d_n) == (1.0, 0.0)
    with pytest.raises(UsageError, match=re.escape("level (n=0, branch -) does not exist here")):
        spinor_level(p, 0, "-")


def test_spinor_level_weights():
    p = ModelParams(omega=0.1)
    level = spinor_level(p, 1, "+")
    assert level.c_n == pytest.approx(0.9605087856778085, abs=1e-15)
    assert level.d_n == pytest.approx(0.2782496588241245, abs=1e-15)
    for n in range(1, 7):
        for branch in ("+", "-"):
            lv = spinor_level(p, n, branch)
            assert lv.c_n ** 2 + lv.d_n ** 2 == pytest.approx(1.0, abs=1e-12)
            assert (lv.energy >= p.rest_energy) == (branch == "+")


def test_h0_is_hermitian():
    p = ModelParams(omega=0.1)
    h0 = build_h0(SPACE, p)
    assert norm_max(h0 - adjoint(h0)) == 0.0


def test_h0_spectrum_matches_closed_form():
    for lam in (0.05, 0.1, 0.5):
        p = ModelParams(omega=lam)
        w = interior_eigs(build_h0(SPACE, p))
        for n in range(7):
            for branch in ("+", "-"):
                e = landau_level(p, n, branch)
                nearest = w[np.argmin(np.abs(w - e))]
                assert abs(nearest - e) <= 1e-8 * abs(e)


def test_landau_degeneracy_tower_grows_with_cutoff():
    p = ModelParams(omega=0.1)
    for n in (1, 2):
        e = landau_level(p, n, "+")
        mults = []
        for cutoff in (8, 10, 12):
            space = Space(cutoff=cutoff, include_spin=True)
            w = interior_eigs(build_h0(space, p), space)
            mults.append(int(np.sum(np.abs(w - e) < 1e-9)))
        assert mults == [cutoff - 1 - n for cutoff in (8, 10, 12)]


def test_h0_spectrum_charge_conjugation_symmetric():
    p = ModelParams(omega=0.1)
    w = interior_eigs(build_h0(SPACE, p))
    assert norm_max(np.sort(w) + np.sort(-w)[::-1]) <= 1e-10 * p.rest_energy


def test_h0_free_limit_is_pure_rest_energy():
    p = ModelParams(omega=0.0, b_field=0.0)
    h0 = build_h0(Space(cutoff=4, include_spin=True), p)
    assert norm_max(h0 - adjoint(h0)) == 0.0
    w = np.unique(np.round(eigvalsh(h0), 12))
    assert np.array_equal(w, [-1.0, 1.0])


def test_h_prime_basics():
    p0 = ModelParams(omega=0.1, gup_a=0.0)
    assert norm_max(build_h_prime(SPACE, p0)) == 0.0

    p = ModelParams(omega=0.1, gup_a=1e-4)
    hp = build_h_prime(SPACE, p)
    assert norm_max(hp - adjoint(hp)) == 0.0
    i0 = SPACE.index(0, 0, spin_up=True)
    expected = -p.gup_a * p.light_speed * p.mass * p.omega_tilde * p.hbar
    assert hp[i0, i0].real == pytest.approx(expected, rel=1e-14)

    doubled = ModelParams(omega=0.1, gup_a=2e-4)
    assert np.allclose(build_h_prime(SPACE, doubled), 2.0 * hp, atol=0, rtol=0)

    inner = compress(hp, SPACE.interior_indices(2))
    assert eigvalsh(inner)[-1] <= 1e-15


def test_h_prime_vanishes_at_critical_field():
    p = ModelParams(omega=1.0, b_field=2.0, gup_a=1e-3)
    assert p.omega_tilde == 0.0
    assert norm_max(build_h_prime(SPACE, p)) == 0.0


def test_full_hamiltonian():
    p0 = ModelParams(omega=0.1, gup_a=0.0)
    assert np.array_equal(build_h0(SPACE, p0) + build_h_prime(SPACE, p0),
                          build_h0(SPACE, p0))

    p = ModelParams(omega=0.1, gup_a=1e-3)
    h = build_h0(SPACE, p) + build_h_prime(SPACE, p)
    assert norm_max(h - adjoint(h)) == 0.0
    # H' is negative semidefinite, so no interior eigenvalue may rise
    w0 = interior_eigs(build_h0(SPACE, p))
    w1 = interior_eigs(h)
    assert np.all(w1 <= w0 + 1e-12)
    # and the rest-energy tower moves strictly down
    assert w1[np.argmin(np.abs(w1 - 1.0))] < 1.0


def test_over_critical_assembly_uses_magnitude_scale():
    p = ModelParams(omega=1.0, b_field=3.0, gup_a=0.0)  # wt = -0.5
    h0 = build_h0(SPACE, p)
    assert norm_max(h0 - adjoint(h0)) == 0.0
    w = interior_eigs(h0)
    # levels follow |wt|: E_n = sqrt(1 + 4*0.5*n), and the rest-energy
    # level mirrors to the negative branch
    for n in (1, 2, 3):
        e = math.sqrt(1.0 + 2.0 * n)
        assert np.min(np.abs(w - e)) <= 1e-10
        assert np.min(np.abs(w + e)) <= 1e-10
    # rest-energy towers on both signs, one physical and one a cutoff edge
    assert int(np.sum(np.abs(w + 1.0) < 1e-9)) == SPACE.cutoff - 1
    assert int(np.sum(np.abs(w - 1.0) < 1e-9)) == SPACE.cutoff - 1


# wt > 0, wt < 0, and wt = 0 (where only the kinetic 2 c p_z coupling stays)
SECTOR_FIELDS = [(1.0, 1.0), (1.0, 3.0), (1.0, 2.0), (0.7, 0.0)]


# each field in natural units, and in the units (m, c, hbar, |e|) =
# (3, 1.7, 0.9, 1.3), where m c^2 = 8.67
SECTOR_CASES = [
    pytest.param(omega, b_field, units, id=f"{omega}-{b_field}{suffix}")
    for units, suffix in (((1.0, 1.0, 1.0, 1.0), ""), ((3.0, 1.7, 0.9, 1.3), "-units"))
    for omega, b_field in SECTOR_FIELDS
]


@pytest.mark.parametrize("omega, b_field, units", SECTOR_CASES)
@pytest.mark.parametrize("strength", [0.0, 1e-5, 1.0])
def test_sectors_equal_dense_interior_blocks(omega, b_field, strength, units):
    space = Space(cutoff=10, include_spin=True)
    mass, light_speed, hbar, charge = units
    # the field at the same fraction of the critical field in every unit system
    p = ModelParams(omega=omega, b_field=b_field * mass * light_speed / charge,
                    mass=mass, light_speed=light_speed, hbar=hbar, charge=charge)
    # one stack per J holds the block of every config's terms; configs with
    # the same block (every strength zero, or wt = 0) have equal terms
    strengths = (strength, 0.0, -2.0 * strength)
    same = strength == 0.0 or p.omega_tilde == 0.0
    # the dense reference in energy, the blocks in units of m c^2
    dense = [(build_h0(space, p) + build_h_prime(space, p, strength=a)) / p.rest_energy
             for a in strengths]
    terms = [sector_terms(space, p, a * mass * light_speed) for a in strengths]
    assert len(set(terms)) == (1 if same else 3)
    stacks = sector_stacks(space, terms)
    sectors = dict(zip(all_js(space), stacks))
    indices = {j: sector_indices(space, j) for j in sectors}
    covered = np.sort(np.concatenate(list(indices.values())))
    assert np.array_equal(covered, np.sort(space.interior_indices(2)))
    for j, stack in sectors.items():
        assert all(sector_j(space, i) == j for i in indices[j])
        assert stack.dtype == np.float64
        assert len(stack) == 3
        for matrix, h in zip(stack, dense):
            # the dense block conjugated by the i^{n_b} phases is real symmetric
            block = sector_block(space, h, j)
            assert norm_max(block.imag) == 0.0
            assert matrix.shape == block.shape
            assert norm_max(matrix - block) <= 1e-13
    if p.omega_tilde == 0.0:
        # the surviving p_z coupling is present in both constructions
        k_a, _, _ = terms[0]
        assert max(norm_max(stack[0] - np.diag(np.diag(stack[0])))
                   for stack in sectors.values()) > k_a


@pytest.mark.parametrize("omega, b_field", SECTOR_FIELDS)
def test_no_interior_element_crosses_a_sector(omega, b_field):
    space = Space(cutoff=10, include_spin=True)
    p = ModelParams(omega=omega, b_field=b_field)
    idx = space.interior_indices(2)
    inner = compress(build_h0(space, p) + build_h_prime(space, p, strength=1.0), idx)
    j = np.array([sector_j(space, i) for i in idx])
    assert np.all(inner[j[:, None] != j[None, :]] == 0.0)


def test_sector_couplings_are_exact_zeros():
    # only the collapsed coupling mixes the spinor components; every other
    # down -> up element is an exact zero, not a roundoff residue
    space = Space(cutoff=8, include_spin=True)
    for b_field, step in ((1.0, (1, 0)), (3.0, (0, -1))):  # wt = 0.5, -0.5
        p = ModelParams(omega=1.0, b_field=b_field)
        stacks = sector_stacks(space, [sector_terms(space, p, p.alpha_gup)])
        for j, stack in zip(all_js(space), stacks):
            states = [space.unpack(int(i)) for i in sector_indices(space, j)]
            for r, (n_a, n_b, row_up) in enumerate(states):
                for q, (m_a, m_b, col_up) in enumerate(states):
                    if row_up and not col_up and (n_a - m_a, n_b - m_b) != step:
                        assert stack[0, r, q] == 0.0


@pytest.mark.parametrize("cutoff", [-1, 0, 1])
def test_fock_space_rejects_cutoff_inside_margin(cutoff):
    with pytest.raises(UsageError, match=re.escape(
            f"cutoff {cutoff} is below the interior margin {INTERIOR_MARGIN}")):
        FockSpace(cutoff=cutoff)


def test_sector_stacks_start_at_the_interior_margin():
    # no space without an interior is built (`FockSpace`), so none reaches
    # the blocks; the smallest cutoff with one, T = 0, has one state per
    # spin, n_a = n_b = 0
    p = ModelParams(omega=1.0)
    space = FockSpace(cutoff=INTERIOR_MARGIN)
    assert space.top == 0 and FockSpace(cutoff=40).top == 38
    terms = sector_terms(space, p, 0.0)
    stacks = sector_stacks(space, [terms])
    assert [stack.shape for stack in stacks] == [(1, 1, 1), (1, 1, 1)]


@pytest.mark.parametrize("cutoff", [2, 3, 4, 7, 12, 40])
def test_sector_cost_counts_the_built_blocks(cutoff):
    space = FockSpace(cutoff)
    stacks = sector_stacks(space, [sector_terms(space, ModelParams(omega=1.0), 0.0)])
    dims = [stack.shape[-1] for stack in stacks]
    assert sector_cost(cutoff) == (sum(d ** 3 for d in dims), 8 * max(dims) ** 2)


def test_stack_configs_fill_the_bound_without_building_a_block():
    tracemalloc.start()
    try:
        for cutoff in range(INTERIOR_MARGIN, MAX_CUTOFF + 1):
            k, block = stack_configs(cutoff), sector_cost(cutoff)[1]
            # as many configs as fit, and a lone block beyond the bound alone
            assert k >= 1 and (k + 1) * block > STACK_BYTES
            assert k * block <= STACK_BYTES or k == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # the five-strength oracle stencil stays one pass at cutoff 200
    assert stack_configs(200) >= 5


def test_cutoff_beyond_the_cost_limit_is_rejected():
    # the closed form alone decides: no block is built
    t = MAX_CUTOFF - INTERIOR_MARGIN
    assert sector_cost(MAX_CUTOFF) == (((t + 1) * (t + 2)) ** 2 // 2, 8 * (t + 1) ** 2)
    FockSpace(cutoff=MAX_CUTOFF)
    with pytest.raises(UsageError, match=f"cutoff {MAX_CUTOFF + 1} exceeds the limit"):
        FockSpace(cutoff=MAX_CUTOFF + 1)
    # an estimate beyond the float range still formats
    with pytest.raises(UsageError, match=r"5\.0e\+399 dim\^3"):
        FockSpace(cutoff=10 ** 100)


def test_only_model_reads_the_a0_routes():
    # `model` picks the route of every a = 0 spectrum from its block terms:
    # no other module imports or reads the closed form (`paired`,
    # `pair_spectrum`) or the chain counts (`window_count`); they ask
    # `level_windows` or `interior_spectrum`
    routes = {"paired", "pair_spectrum", "window_count"}
    package = pathlib.Path(gup_dosc.__file__).parent
    readers = {path.stem for path in package.glob("*.py") if path.stem != "model"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and routes & {alias.name for alias in node.names}
               or isinstance(node, ast.Attribute) and node.attr in routes}
    assert readers == set()
