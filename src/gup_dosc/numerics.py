"""Dense linear algebra with explicit accuracy contracts.

Every matrix this module takes is made a square ``numpy`` array:
``float64`` when the input is real (the J-sector blocks are real symmetric),
``complex128`` otherwise. The Hermitian eigensolver wraps LAPACK and
enforces the residual, orthonormality and spectral-moment contracts the
physics modules rely on, and fixes the phase of every eigenvector so that
reports are reproducible. It is the package's one module that imports
numpy at module level. Only the dense branch of `model.interior_spectrum`,
a scan's spectra at a != 0 and at the coupled critical field, imports it,
when it runs, to solve the stacks that `model.sector_stacks` scatters from
the J-bands, so numpy loads with a scan's first eigensolve. `eigh` has no
caller in src: it stays because acceptance criterion 8 pins its contract
at dimensions up to 512, as a single-matrix `eigvalsh` stays for
criterion 7 (ROADMAP item 18). The package's other eigenvalues are pure
Python, under the same residual bound, `params.residual_bound`, which
every solver calls so that no module states another:
`model.SectorBand` certifies the oracle's J-sector eigenvalues, and
`perturbation._jacobi_eigh` gives the stored 4x4 block's eigenpairs under
`eigh`'s whole contract.
"""

from __future__ import annotations

import numpy as np

from .errors import ComputationError, UsageError
# the residual bound, which the numpy-free J-band kernel and Jacobi
# rotations share, and the tolerance of the second moment
from .params import DEFAULT_EIGH_TOL, residual_bound


def as_matrix(a, stack: bool = False) -> np.ndarray:
    """Validate and return `a` as a square, finite array: float64 if real, else complex128.

    With `stack`, `a` may also be a stack (..., n, n) of square matrices.
    """
    m = np.asarray(a)
    m = m.astype(np.float64 if np.isrealobj(m) else np.complex128, copy=False)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise UsageError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise UsageError("matrix dimension must be at least 1")
    if not np.isfinite(m).all():
        raise UsageError("matrix contains non-finite entries")
    return m


def norm_max(a) -> float:
    """Largest entry magnitude; the scale used by the accuracy contracts."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude component is real positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0.0:
            out[:, k] = col * (pivot.conjugate() / abs(pivot))
    return out


def _check_moments(h: np.ndarray, w: np.ndarray) -> None:
    """ComputationError unless the eigenvalues `w` of each matrix A of `h`,
    one matrix or a stack (..., n, n), match its first two spectral moments.

    They are compared in units of s = max(1, ||A||_max), so that entries near
    the float range cannot overflow them: sum(w/s) against tr(A/s) within
    1e-10 * n, and sum((w/s)^2) against ||A/s||_F^2 within DEFAULT_EIGH_TOL
    * n. The second moment catches eigenvalues LAPACK returns wrong by far
    more than roundoff while their sum still matches the trace.
    """
    n = w.shape[-1]
    # s per matrix, shaped (..., 1, 1)
    scale = np.abs(h).max(axis=(-2, -1), keepdims=True, initial=1.0)
    hs, ws = h / scale, w / scale[..., 0]
    trace_gap = np.abs(ws.sum(axis=-1) - hs.trace(axis1=-2, axis2=-1).real)
    # ||A/s||_F^2 per matrix as one flattened row times its own adjoint
    rows = hs.reshape(*hs.shape[:-2], 1, n * n)
    frobenius = (rows.conj() @ rows.swapaxes(-1, -2))[..., 0, 0].real
    moment_gap = np.abs((ws * ws).sum(axis=-1) - frobenius)
    for gap, bound, message in (
        (trace_gap, 1e-10 * n, "eigenvalue sum deviates from trace by {:.3e} in "
                               "units of {:.3e}"),
        (moment_gap, DEFAULT_EIGH_TOL * n,
         "sum of squared eigenvalues deviates from the squared Frobenius norm by "
         "{:.3e} in units of {:.3e} squared"),
    ):
        if not np.all(gap <= bound):
            k = int(np.argmin(gap <= bound))  # the first matrix that fails
            raise ComputationError(message.format(gap.flat[k], scale.flat[k]))


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix with verified accuracy.

    Returns (eigenvalues, eigenvectors) as `np.linalg.eigh` does: the
    eigenvalues real and ascending, column k of the eigenvectors paired with
    eigenvalue k, the columns orthonormal and deterministically phased. The
    matrix must be exactly Hermitian, as for `eigvalsh`: it is not
    symmetrized, so one that is not fails the moment check. Raises
    ComputationError (carrying the achieved residual) if the moment
    (`_check_moments`), residual or orthonormality contract cannot be met,
    and UsageError on non-finite input.
    """
    h = as_matrix(a)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"eigensolver did not converge: {exc}") from exc
    _check_moments(h, w)
    v = _fix_phases(v)

    residual = float(np.max(np.linalg.norm(h @ v - v * w[np.newaxis, :], axis=0)))
    bound = residual_bound(norm_max(h), h.shape[0])
    if not residual <= bound:
        raise ComputationError(f"eigh residual {residual:.3e} exceeds bound {bound:.3e}")
    ortho = norm_max(v.conj().T @ v - np.eye(len(w)))
    if not ortho <= 1e-10:
        raise ComputationError(f"eigenvector orthonormality defect {ortho:.3e}")
    return w, v


def eigvalsh(a) -> np.ndarray:
    """Ascending eigenvalues only; cheaper than full `eigh`.

    `a` is one Hermitian matrix or a stack (..., n, n) of them, solved in one
    LAPACK call; row k of the result belongs to matrix k, and each row is
    bitwise what the matrix alone would give. Each matrix must be exactly
    Hermitian: it is not symmetrized, LAPACK reads only its lower triangle,
    and the moment checks read all of it. Without eigenvectors there is no
    residual to check; the first two spectral moments of each matrix are
    (`_check_moments`). Real input is solved as real symmetric, never
    promoted to complex.
    """
    h = as_matrix(a, stack=True)
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"eigensolver did not converge: {exc}") from exc
    _check_moments(h, w)
    return w
