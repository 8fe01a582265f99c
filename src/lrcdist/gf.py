"""Linear algebra over prime fields GF(q), batched where distance checks need it.

``batch_columns_independent`` is the one kernel of the exhaustive distance
search in ``codec.min_distance``.  It takes a batch of column prefixes that
end at the same column and answers, for every later column, whether it
extends the prefix independently.  The prefix's pivot steps are shared by
all its extensions, each step touches only the trailing block, and the
caller sizes every batch by a fixed budget of int64 entries.
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


def batch_columns_independent(h: np.ndarray, q: int, prefixes: np.ndarray) -> np.ndarray:
    """For each row of ``prefixes`` and each later column c of h, report whether
    the prefix's columns together with column c are linearly independent over GF(q).

    Every row of the (B, s) array ``prefixes`` lists s ascending column indices
    into the (m, n) matrix h and ends at the same column p (-1 when s = 0); the
    later columns are p + 1, ..., n - 1, and the result is a (B, n - 1 - p)
    bool array.  Each prefix is stacked with all later columns and its s
    fraction-free pivot steps run once for all of them: a prefix without a
    pivot is dependent, and otherwise column c extends it independently iff
    c's entries below the pivots are not all zero.  Each step updates only the
    trailing block and swaps rows only where the pivot moved; products stay
    below q**2, which fits in int64 for every q that ``codec.PrimeField``
    accepts.
    """
    b, s = prefixes.shape
    m, n = h.shape
    last = int(prefixes[0, -1]) if s else -1
    cols = np.concatenate([prefixes, np.broadcast_to(np.arange(last + 1, n), (b, n - 1 - last))], axis=1)
    a = (h.T.astype(np.int64) % q)[cols].transpose(0, 2, 1)  # (B, m, s + later)
    # with s >= m no row is left below the pivots, so step m - 1 has nothing to do
    for j in range(min(s, m - 1)):
        # without a pivot, pv = 0 and column j is zero below row j, so the
        # update zeroes the trailing block: every extension reads dependent
        nz = a[:, j:, j] != 0
        piv = nz.argmax(axis=1) + j
        moved = np.nonzero(piv != j)[0]
        if moved.size:
            top = a[moved, j, j:].copy()
            a[moved, j, j:] = a[moved, piv[moved], j:]
            a[moved, piv[moved], j:] = top
        pv = a[:, j, j][:, None, None]
        a[:, j + 1:, j + 1:] = (a[:, j + 1:, j + 1:] * pv - a[:, j + 1:, j, None] * a[:, j, None, j + 1:]) % q
    return a[:, s:, s:].any(axis=1)
