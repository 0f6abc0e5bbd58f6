import numpy as np
import pytest

from gup_dosc.errors import UsageError
from gup_dosc.fock import FockSpace
from gup_dosc.numerics import eigvalsh, norm_max
from reference import (
    OscParams,
    Space,
    adjoint,
    angular_momentum,
    commutator,
    compress,
    embed_spinor,
    ladder_a,
    momentum_ops,
    p_squared,
    position_ops,
)

SPACE = Space(cutoff=10, include_spin=False)
OSC = OscParams(mass=1.0, omega_tilde=0.5)
INTERIOR = SPACE.interior_indices(2)


def interior_norm(m):
    return norm_max(compress(m, INTERIOR))


def test_index_map_is_a_bijection():
    for space in (SPACE, Space(cutoff=3, include_spin=True)):
        seen = set()
        for i in range(space.dim):
            n_a, n_b, spin = space.unpack(i)
            assert space.index(n_a, n_b, spin_up=spin) == i
            seen.add((n_a, n_b, spin))
        assert len(seen) == space.dim


def test_flat_order_is_lexicographic_spin_first():
    space = Space(cutoff=2, include_spin=True)
    # spin-up block first, then n_a-major, n_b-minor
    assert space.index(0, 0, spin_up=True) == 0
    assert space.index(0, 1, spin_up=True) == 1
    assert space.index(1, 0, spin_up=True) == 3
    assert space.index(0, 0, spin_up=False) == 9


def test_interior_indices_triangle():
    idx = SPACE.interior_indices(2)
    states = {SPACE.unpack(i)[:2] for i in idx}
    assert states == {
        (na, nb)
        for na in range(11)
        for nb in range(11)
        if na + nb <= 8
    }
    with pytest.raises(UsageError):
        SPACE.interior_indices(-1)


def test_ladder_matrix_elements():
    a = ladder_a(SPACE)
    for n_a in range(1, SPACE.cutoff + 1):
        row = SPACE.index(n_a - 1, 3)
        col = SPACE.index(n_a, 3)
        assert a[row, col] == pytest.approx(np.sqrt(n_a), abs=0)
    assert np.count_nonzero(a) == SPACE.cutoff * SPACE.n_states


def test_position_operators():
    z, zbar = position_ops(SPACE, OSC)
    assert np.array_equal(adjoint(z), zbar)
    scale = OSC.hbar / (OSC.mass * OSC.omega_tilde)
    zz = z @ zbar
    ground = SPACE.index(0, 0)
    assert zz[ground, ground].real == pytest.approx(scale, rel=1e-14)
    for state in ((1, 0), (0, 1)):
        i = SPACE.index(*state)
        assert zz[i, i].real == pytest.approx(2 * scale, rel=1e-14)


def test_position_needs_a_length_scale():
    with pytest.raises(UsageError, match="critical field"):
        position_ops(SPACE, OscParams(mass=1.0, omega_tilde=0.0))


def test_p_squared_expectations_and_positivity():
    p2 = p_squared(SPACE, OSC)
    unit = OSC.mass * abs(OSC.omega_tilde) * OSC.hbar
    ground = SPACE.index(0, 0)
    assert p2[ground, ground].real == pytest.approx(unit, rel=1e-14)
    for total in range(4):
        for n_a in range(total + 1):
            i = SPACE.index(n_a, total - n_a)
            assert p2[i, i].real == pytest.approx(unit * (total + 1), rel=1e-13)
    inner = compress(p2, INTERIOR)
    assert norm_max(inner - adjoint(inner)) <= 1e-13
    assert eigvalsh(inner)[0] >= -1e-12 * unit


def test_ladder_identification_pins_the_convention():
    # (1/sqrt(m w hbar)) p_zbar - (i/2) sqrt(m w / hbar) z must equal +a
    z, _ = position_ops(SPACE, OSC)
    _, pzbar = momentum_ops(SPACE, OSC)
    w = OSC.omega_tilde
    candidate = pzbar / np.sqrt(OSC.mass * w * OSC.hbar) - 0.5j * np.sqrt(
        OSC.mass * w / OSC.hbar
    ) * z
    assert norm_max(candidate - ladder_a(SPACE)) <= 1e-14


def test_angular_momentum():
    lz = angular_momentum(SPACE, hbar=1.0)
    assert lz[SPACE.index(0, 0), SPACE.index(0, 0)] == 0.0
    assert lz[SPACE.index(1, 0), SPACE.index(1, 0)] == -1.0
    assert lz[SPACE.index(0, 1), SPACE.index(0, 1)] == 1.0
    p2 = p_squared(SPACE, OSC)
    assert interior_norm(commutator(p2, lz)) <= 1e-13


def test_deformed_commutator_closure():
    """[x, p0(1 - a p0)] - i hbar (1 - 2 a p0) is pure truncation tail.

    On the interior the identity closes to roundoff at every deformation
    strength. The full-matrix residual splits into an a-independent edge
    defect plus a piece exactly linear in a; subtracting the undeformed
    defect exposes the linear scaling.
    """
    z, zbar = position_ops(SPACE, OSC)
    pz, pzbar = momentum_ops(SPACE, OSC)
    x = 0.5 * (z + zbar)
    p0 = pz + pzbar
    eye = np.eye(SPACE.dim)

    def residual(a):
        p_deformed = p0 - a * (p0 @ p0)
        lhs = commutator(x, p_deformed)
        rhs = 1j * OSC.hbar * (eye - 2.0 * a * p0)
        return lhs - rhs

    base = residual(0.0)
    tails = {}
    for a in (1e-3, 2e-3):
        res = residual(a)
        assert interior_norm(res) <= 1e-12 * OSC.hbar
        tails[a] = norm_max(res - base)
    assert tails[1e-3] > 0.0
    ratio = tails[2e-3] / tails[1e-3]
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_embed_spinor():
    eye = np.eye(4, dtype=complex)
    zero = np.zeros((4, 4), dtype=complex)
    sz = embed_spinor(eye, -eye, zero, zero)
    assert np.array_equal(sz, np.kron(np.diag([1.0, -1.0]), eye))
    x = np.arange(16, dtype=complex).reshape(4, 4) * (1 + 0.5j)
    h = embed_spinor(zero, zero, x, adjoint(x))
    assert norm_max(h - adjoint(h)) == 0.0
    with pytest.raises(UsageError, match="dimension"):
        embed_spinor(eye, np.eye(3), zero, zero)


def test_spinful_operators_act_identically_on_both_components():
    space = Space(cutoff=4, include_spin=True)
    a = ladder_a(space)
    half = space.spinless_dim
    assert np.array_equal(a[:half, :half], a[half:, half:])
    assert norm_max(a[:half, half:]) == 0.0


def test_sectors_and_lines_are_the_interior_states():
    # FockSpace.sectors and FockSpace.line against every (n_a, n_b) with
    # n_a + n_b <= T, and lines beyond the interior empty
    for cutoff in range(2, 41):
        space = FockSpace(cutoff)
        top = space.top
        states = [(n_a, n_b) for n_a in range(top + 1) for n_b in range(top + 1 - n_a)]
        assert list(space.sectors) == sorted({n_a - n_b + down for n_a, n_b in states
                                              for down in (0, 1)})
        for d in range(-top - 3, top + 4):
            assert list(space.line(d)) == [n_b for n_a, n_b in states if n_a - n_b == d]
