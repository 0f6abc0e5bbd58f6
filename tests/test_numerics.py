import ast
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gup_dosc
from gup_dosc.errors import ComputationError, UsageError
from gup_dosc.fock import FockSpace
from gup_dosc.cli import dump_matrix
from gup_dosc.model import sector_stacks, sector_terms
from gup_dosc.numerics import as_matrix, eigh, eigvalsh, norm_max
from gup_dosc.params import ModelParams
from reference import adjoint, commutator

RNG = np.random.default_rng(20240817)

# Shifts of the stored 4x4 degenerate block, frozen from an exact
# characteristic-polynomial computation (sympy, 30 digits).
BLOCK = -0.5 * np.array(
    [
        [11.0, -5.0, -5.0, -5.0],
        [-5.0, 11.0, -5.0, -5.0],
        [-5.0, -5.0, 13.0, -5.0],
        [-5.0, -5.0, -5.0, 9.0],
    ],
    dtype=np.complex128,
)
BLOCK_EIGS = sorted(
    [-8.7307879247336544, -8.0, -7.3192108377341745, 2.049998762467828]
)


def random_hermitian(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def test_adjoint():
    m = np.array([[0, 1j], [0, 0]])
    assert np.array_equal(adjoint(m), np.array([[0, 0], [-1j, 0]]))
    a = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
    assert np.array_equal(adjoint(adjoint(a)), as_matrix(a))
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3).astype(complex))


def test_commutator():
    a = random_hermitian(4)
    assert norm_max(commutator(a, a)) == 0.0
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(commutator(sx, sy), 2j * sz, atol=1e-15)
    b = random_hermitian(4)
    assert np.allclose(commutator(a, b), -commutator(b, a), atol=0, rtol=0)


def test_commutator_dimension_mismatch_names_both_dims():
    with pytest.raises(UsageError, match="2.*3|3.*2"):
        commutator(np.eye(2), np.eye(3))


def test_eigh_closed_form_2x2():
    w, _ = eigh(np.array([[2, 1j], [-1j, 2]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-14)


def test_eigh_diagonal_permutation_eigenvectors():
    w, v = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=0)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert np.allclose(v, expected, atol=1e-14)


def test_eigh_reference_block():
    w, _ = eigh(BLOCK)
    assert np.allclose(w, BLOCK_EIGS, atol=1e-12)
    # eigenvalue sum equals the trace, here exactly -22
    assert abs(np.sum(w) + 22.0) <= 1e-12


def test_eigh_deterministic():
    a = random_hermitian(24)
    (w1, v1), (w2, v2) = eigh(a), eigh(a)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eigh_degenerate_cluster_is_canonical():
    # fully degenerate: canonical basis must be the standard basis itself
    _, v = eigh(np.eye(4, dtype=complex))
    assert np.allclose(v, np.eye(4), atol=1e-12)
    # two-fold cluster below a singleton
    _, v = eigh(np.diag([1.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(v[:, :2], np.eye(3)[:, :2], atol=1e-12)


def test_eigh_rejects_bad_input():
    with pytest.raises(UsageError):
        eigh(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(UsageError):
        eigh(np.ones((2, 3)))


def test_eigh_rejects_a_matrix_that_is_not_hermitian():
    # LAPACK reads the lower triangle, the identity here; the second-moment
    # check, which comes before the residual one, reads the whole matrix and
    # finds the 5 above the diagonal
    with pytest.raises(ComputationError, match="squared Frobenius norm"):
        eigh(np.array([[1.0, 5.0], [0.0, 1.0]]))


def test_eigh_checks_the_second_moment(monkeypatch):
    # eigenvalues with the right trace, 4, and the wrong second moment, 8
    # against 10, next to the right eigenvectors: eigh holds eigvalsh's
    # moment contract, and checks it before the residual
    h = np.diag([1.0, 3.0])
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array([2.0, 2.0]), np.eye(2)))
    with pytest.raises(ComputationError, match="^sum of squared eigenvalues deviates"):
        eigh(h)


def test_eigvalsh_real_input_stays_real():
    a = RNG.normal(size=(17, 17))
    a = 0.5 * (a + a.T)
    assert as_matrix(a).dtype == np.float64
    assert as_matrix(a.astype(complex)).dtype == np.complex128
    real = eigvalsh(a)
    assert real.dtype == np.float64
    assert norm_max(real - eigvalsh(a.astype(complex))) <= 1e-13


def test_eigvalsh_moments_near_the_float_range():
    # entries whose squares overflow: the moments are compared in units of
    # the largest entry, so no overflow warning and no OverflowError
    h = np.array([[0.0, 1e200], [1e200, 0.0]])
    assert np.array_equal(eigvalsh(h), [-1e200, 1e200])
    h = np.diag([1e308, -1e308])
    assert np.array_equal(eigvalsh(h), [-1e308, 1e308])


@pytest.mark.parametrize("setting, expected", [(None, "1"), ("2", "2")])
def test_import_sets_one_blas_thread_by_default(setting, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    env["PYTHONPATH"] = str(pathlib.Path(gup_dosc.__file__).parents[1])
    code = (
        # the package itself loads no numpy; the eigensolver does, through
        # the package
        "import os, sys, gup_dosc.numerics\n"
        "tasks = '/proc/self/task'\n"
        "n = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'], n)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout.split()
    assert out[:2] == ["True", expected]
    if setting is None:
        if out[2] == "None":
            pytest.skip("thread count needs Linux /proc/self/task")
        assert out[2] == "1"


def _import_time_modules(tree: ast.Module):
    """The absolute module names imported by the statements that run when a
    module is imported: every import outside a function body."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        nodes.extend(ast.iter_child_nodes(node))


def test_only_numerics_imports_numpy_at_module_level():
    # every other module of the package imports numpy, if at all, inside the
    # function that needs it, so numpy loads only where a solve needs it
    package = pathlib.Path(gup_dosc.__file__).parent
    importers = {path.stem for path in package.glob("*.py")
                 if any(name.split(".")[0] == "numpy"
                        for name in _import_time_modules(ast.parse(path.read_text())))}
    assert importers == {"numerics"}


def test_eigvalsh_matches_eigh():
    a = random_hermitian(17)
    assert np.allclose(eigvalsh(a), eigh(a)[0], atol=1e-12)


def test_dump_matrix_golden():
    m = np.array([[1.0, 0.5j], [-0.5j, -2.0]])
    expected = "1+0i 0+0.5i\n-0-0.5i -2+0i"
    assert dump_matrix(m) == expected


def test_dump_matrix_seventeen_digits_round_trip():
    x = 0.1 + 0.2  # not exactly representable as printed
    m = np.array([[x + 1j * x]])
    text = dump_matrix(m)
    re_part, im_part = text[:-1].split("+")
    assert float(re_part) == x and float(im_part) == x


def _uncollapsed_sector():
    """The J = -3 interior sector (n_a + n_b <= 14) of H0 at m = c = hbar = 1,
    wt = 0.75, written with the un-collapsed coupling coefficients: the b
    coupling i(wt l - 1/l) cancels only to roundoff. Returns the 12x12 block
    and its exact spectrum."""
    wt = 0.75
    ell = np.sqrt(1.0 / wt)
    top, j = 14, -3
    up = [(n_b + j, n_b) for n_b in range(-j, (top - j) // 2 + 1)]
    down = [(n_b + j - 1, n_b) for n_b in range(1 - j, (top - j + 1) // 2 + 1)]
    u = len(up)
    h = np.diag([1.0] * u + [-1.0] * len(down)).astype(complex)
    for q, (n_a, n_b) in enumerate(down):
        if (n_a + 1, n_b) in up:
            h[up.index((n_a + 1, n_b)), u + q] = (1 / ell + wt * ell) * np.sqrt(n_a + 1)
        if (n_a, n_b - 1) in up:
            h[up.index((n_a, n_b - 1)), u + q] = 1j * (wt * ell - 1 / ell) * np.sqrt(n_b)
    h = h + np.triu(h, 1).conj().T
    exact = [np.sqrt(1.0 + 4.0 * wt * n_a) for n_a, _ in up]
    return h, sorted(exact + [-e for e in exact])


def test_eigvalsh_never_silently_wrong_on_uncollapsed_sector():
    # LAPACK has returned +-1.99999965 for the exact +-2 on this block;
    # eigvalsh must either get the spectrum right or refuse.
    h, exact = _uncollapsed_sector()
    assert h.shape == (12, 12)
    try:
        w = eigvalsh(h)
    except ComputationError:
        return
    assert np.allclose(w, exact, atol=1e-12, rtol=0)
    assert np.min(np.abs(w - 2.0)) <= 1e-12 and np.min(np.abs(w + 2.0)) <= 1e-12


def test_eigvalsh_stack_never_silently_wrong_on_uncollapsed_sector():
    # behind a benign block in one stack, the moment checks still see the
    # uncollapsed block on its own
    h, exact = _uncollapsed_sector()
    benign = np.diag(np.arange(12.0)).astype(complex)
    try:
        w = eigvalsh(np.stack([benign, h]))
    except ComputationError:
        return
    assert np.array_equal(w[0], np.arange(12.0))
    assert np.allclose(w[1], exact, atol=1e-12, rtol=0)
    assert np.min(np.abs(w[1] - 2.0)) <= 1e-12 and np.min(np.abs(w[1] + 2.0)) <= 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_eigvalsh_stack_equals_per_matrix_calls_bitwise(dtype):
    rng = np.random.default_rng(7)
    for shape in ((5, 17, 17), (2, 3, 6, 6), (1, 39, 39)):
        a = rng.normal(size=shape)
        if dtype is complex:
            a = a + 1j * rng.normal(size=shape)
        a = a + np.swapaxes(a, -1, -2).conj()
        w = eigvalsh(a)
        assert w.shape == shape[:-1] and w.dtype == np.float64
        for index in np.ndindex(*shape[:-2]):
            assert np.array_equal(w[index], eigvalsh(a[index]))


def test_eigvalsh_stack_of_sector_blocks_equals_per_block_calls_bitwise():
    p = ModelParams(omega=1.0, b_field=1.0)
    space = FockSpace(cutoff=40)
    stacks = sector_stacks(space, [sector_terms(space, p, a) for a in (0.0, 1e-5, -2e-5)])
    for stack in stacks:
        w = eigvalsh(stack)
        for k, block in enumerate(stack):
            assert np.array_equal(w[k], eigvalsh(block))


def test_eigvalsh_stack_moments_near_the_float_range():
    # each matrix is scaled by its own largest entry, so a benign block and
    # blocks whose squares overflow share one stack without a warning
    stack = np.array([[[1.0, 0.0], [0.0, 2.0]],
                      [[0.0, 1e200], [1e200, 0.0]],
                      [[1e308, 0.0], [0.0, -1e308]],
                      [[-1e308, 1e307], [1e307, 0.5]]])
    w = eigvalsh(stack)
    assert np.array_equal(w[:3], [[1.0, 2.0], [-1e200, 1e200], [-1e308, 1e308]])
    assert np.all(np.isfinite(w))


def test_eigvalsh_holds_no_copy_of_its_stack():
    # 18 blocks of 119 states, about one 2 MiB J-sector stack at cutoff 120;
    # the moment checks take one scaled copy and nothing else
    a = np.random.default_rng(3).normal(size=(18, 119, 119))
    a = a + a.swapaxes(-1, -2)
    tracemalloc.start()
    try:
        eigvalsh(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * a.nbytes


def test_eigvalsh_stack_rejects_non_finite_and_non_square():
    with pytest.raises(UsageError, match="non-finite"):
        eigvalsh(np.stack([np.eye(3), np.diag([1.0, np.inf, 0.0])]))
    with pytest.raises(UsageError, match="square"):
        eigvalsh(np.ones((2, 3, 4)))
    # eigh and dump_matrix take one matrix only
    with pytest.raises(UsageError, match="square"):
        eigh(np.ones((2, 3, 3)))
