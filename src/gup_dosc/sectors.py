"""The J-sector blocks of the Hamiltonian as numpy stacks, for the eigensolver.

Only the dense branch of `model.interior_spectrum`, which serves the scan
alone, imports this module, and numpy with it: a config whose spectrum is
closed form (`model.paired`) never builds a block, and neither do the
critical field's level rows (`model.window_count`). The blocks hold the operators of `model` in units of m c^2,
one stack per J = n_a - n_b + [spin down], each config's block one row of it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .fock import FockSpace


def _links(n_a: np.ndarray, n_b: np.ndarray, top: int) -> Iterator[tuple]:
    """(link, up n_b, root) of each term of K = k_a a† + k_b b on the spin-down
    states (n_a, n_b), k_a's first: a† takes a down state to up (n_a + 1, n_b)
    while that stays interior, with root sqrt(n_a + 1), and b takes it to up
    (n_a, n_b - 1), with root sqrt(n_b). `link` marks the down states a term
    moves; each term is computed as it is drawn."""
    yield n_a + n_b < top, n_b, np.sqrt(n_a + 1.0)
    yield n_b >= 1, n_b - 1, np.sqrt(n_b.astype(float))


def build_sectors(
    space: FockSpace,
    terms: Sequence[tuple[float, float, float]],
    js: Iterable[int] | None = None,
) -> Iterator[np.ndarray]:
    """The interior blocks of H0 + H', in units of m c^2, for each of
    `terms`, one stack per J = n_a - n_b + [spin down] in `js`, a list of
    J-sectors of `space` (`FockSpace.sectors`, all of them by default); row
    k of every stack is the block of terms[k].

    Each of `terms` is the (k_a, k_b, deform) of one config
    (`model.sector_terms`), checked there. Built from closed-form ladder
    matrix elements on the interior n_a + n_b <= `space.top` only; the full
    space is never allocated. The stacks are generated one at a time, in the
    order of `js`, so a caller that consumes them in turn holds one stack at
    a time. Each block runs over the spin-up states, then the spin-down
    states, each ascending in n_b; it is real symmetric float64 in the basis
    where |n_a, n_b, s> carries the phase i^{n_b} (CONVENTIONS.md, Sectors),
    and holds

      diagonal   ± 1 - alpha |lam| (n_a + n_b + 1)
      pair       <n_a+1, n_b+1| H' |n_a, n_b> = -alpha |lam| sqrt((n_a+1)(n_b+1))
      coupling   K = k_a a† + k_b b from spin down to spin up
                 (`model._couplings`, `_links`)

    Per J the index pattern is built once for every row, and row k is
    h_k + deform_k D, with h_k the ± 1 and coupling part and D the
    deformation pattern (n_a + n_b + 1 and the pair root): the same float
    operations as building each block alone. D is not added when every
    deform is zero.
    """
    # one (row,) column per term
    columns = np.array(terms, dtype=float).reshape(-1, 3).T
    return (_sector(space, j, *columns) for j in (space.sectors if js is None else js))


def _sector(space: FockSpace, j: int, k_a: np.ndarray, k_b: np.ndarray,
            deform: np.ndarray) -> np.ndarray:
    # up states on line n_a - n_b = j, down ones on j - 1; arange keeps int dtype
    up_line = space.line(j)
    up_b, dn_b = (np.arange(r.start, r.stop) for r in (up_line, space.line(j - 1)))
    up_a, dn_a = up_b + j, dn_b + (j - 1)
    u, v = len(up_b), len(dn_b)
    n = u + v
    stack = np.zeros((len(k_a), n, n))
    # every element is set through its flat index i n + k
    flat = stack.reshape(len(k_a), n * n)
    flat[:, : u * (n + 1) : n + 1] = 1.0
    flat[:, u * (n + 1) :: n + 1] = -1.0
    # up positions are n_b - up_line.start; down state q sits at u + q
    for (link, to_b, root), k in zip(_links(dn_a, dn_b, space.top), (k_a, k_b)):
        if k.any():
            q = np.nonzero(link)[0]
            up = to_b[q] - up_line.start
            coeff = k[:, np.newaxis] * root[q]
            flat[:, up * n + u + q] = coeff
            flat[:, (u + q) * n + up] = coeff
    if deform.any():
        # the deformation pattern: n_a + n_b + 1 on the diagonal and the pair
        # root beside it, added in place along the three diagonals
        n_a, n_b = np.concatenate([up_a, dn_a]), np.concatenate([up_b, dn_b])
        pair = np.sqrt((n_a[:-1] + 1.0) * (n_b[:-1] + 1.0))
        if u and v:
            pair[u - 1] = 0.0  # it does not flip the spin: last up, first down
        weight = deform[:, np.newaxis]
        flat[:, :: n + 1] += weight * (n_a + n_b + 1)
        flat[:, 1 :: n + 1] += weight * pair
        flat[:, n :: n + 1] += weight * pair
    return stack
