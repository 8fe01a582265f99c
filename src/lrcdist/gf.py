"""Linear algebra over prime fields GF(q), batched where distance checks need it.

``batch_columns_independent`` is the one kernel of the exhaustive distance
search in ``codec.min_distance``.  It takes a batch of column prefixes that
end at the same column and answers, for each prefix, whether it stays
independent with every pair of later columns.  The prefix's pivot steps are
shared by all the pairs, each step touches only the trailing block, and the
caller sizes every batch by a fixed budget of int64 entries.  The pairs need
no pivot step of their own: P with u and v is dependent iff P is, or the
images of u and v modulo span(P) are, that is, one of them is zero or the
two are parallel.  Parallel images become equal once each is divided by its
first nonzero entry, and sorting each prefix's images puts equal ones side
by side, so every dependent pair is found and no independent one is taken
for dependent.
"""

from __future__ import annotations

import numpy as np


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def next_prime_above(x: int) -> int:
    q = max(2, x + 1)
    while not is_prime(q):
        q += 1
    return q


def rref_mod(mat: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod q; returns (R, pivot column indices).

    Pivot ties break toward the lowest column index, which keeps systematic
    encodings reproducible.
    """
    a = np.array(mat, dtype=np.int64) % q
    rows, cols = a.shape
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if len(nz) == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), -1, q)
        a[rank] = (a[rank] * inv) % q
        factors = a[:, col].copy()
        factors[rank] = 0
        a = (a - np.outer(factors, a[rank]) % q) % q
        pivots.append(col)
        rank += 1
    return a, pivots


def rank_mod(mat: np.ndarray, q: int) -> int:
    return len(rref_mod(mat, q)[1])


def _inverse(x: np.ndarray, q: int) -> np.ndarray:
    """Elementwise x**(q - 2) mod q, the inverse of every nonzero x (Fermat);
    products stay below q**2."""
    result = np.ones_like(x)
    e = q - 2
    while e:
        if e & 1:
            result = result * x % q
        e >>= 1
        if e:
            x = x * x % q
    return result


def batch_columns_independent(h: np.ndarray, q: int, prefixes: np.ndarray) -> np.ndarray:
    """For each row of ``prefixes``, report whether its columns of h together
    with every pair of later columns are linearly independent over GF(q).

    Every row of the (B, s) array ``prefixes`` lists s ascending column indices
    into the (m, n) matrix h and ends at the same column p (-1 when s = 0);
    the later columns are p + 1, ..., n - 1, at least two of them, and the
    result is a (B,) bool array.  A prefix P with later columns u and v is
    dependent iff P is, or the images of u and v modulo span(P) are: one of
    them is zero or the two are parallel.  Each prefix is stacked with all
    later columns and its s fraction-free pivot steps run once for all of
    them; a prefix without a pivot zeroes every image, and otherwise the
    images are the later columns' entries below the pivots, up to an
    invertible row transform.  Each image is divided by its first nonzero
    entry, so parallel images become equal, and each prefix's images are
    sorted by their bytes, which puts equal ones next to each other.  Each
    step updates only the trailing block and swaps rows only where the
    diagonal entry is zero; products stay below q**2, which fits in int64 for
    every q that ``codec.PrimeField`` accepts.
    """
    b, s = prefixes.shape
    m, n = h.shape
    if s >= m - 1:  # s + 2 columns in m rows are dependent
        return np.zeros(b, dtype=bool)
    last = int(prefixes[0, -1]) if s else -1
    cols = np.empty((b, n - 1 - last + s), dtype=np.int64)
    cols[:, :s] = prefixes
    cols[:, s:] = np.arange(last + 1, n)
    a = (h.T.astype(np.int64) % q)[cols].transpose(0, 2, 1)  # (B, m, s + later)
    for j in range(s):
        # without a pivot, a[:, j, j] = 0 and column j is zero below row j, so
        # the update zeroes the trailing block: every image reads zero
        moved = np.flatnonzero(a[:, j, j] == 0)
        if moved.size:
            piv = (a[moved, j:, j] != 0).argmax(axis=1) + j
            top = a[moved, j, j:].copy()
            a[moved, j, j:] = a[moved, piv, j:]
            a[moved, piv, j:] = top
        block = a[:, j + 1:, j + 1:]
        block *= a[:, j, j][:, None, None]
        block -= a[:, j + 1:, j, None] * a[:, j, None, j + 1:]
        # block %= q, but NumPy divides by a scalar through a multiply and a
        # shift, which is several times faster on the negative entries
        block -= block // q * q
    images = a[:, s:, s:]  # (B, m - s, later)
    first = (images != 0).argmax(axis=1)  # row of each image's first nonzero entry
    lead = images[np.arange(b)[:, None], first, np.arange(images.shape[2])]
    zero = lead == 0
    # a zero image is divided by 1 and stays zero
    units = np.ascontiguousarray((images * _inverse(lead + zero, q)[:, None] % q).transpose(0, 2, 1))
    # a byte order is a total order in which equal images are adjacent
    units.view(np.dtype((np.void, units.shape[2] * units.itemsize))).sort(axis=1)
    parallel = (units[:, 1:] == units[:, :-1]).all(axis=2)
    return ~(zero.any(axis=1) | parallel.any(axis=1))
