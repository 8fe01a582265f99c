"""Linear algebra over prime fields GF(q), batched where distance checks need it."""

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
        for row in range(rows):
            if row != rank and a[row, col]:
                a[row] = (a[row] - a[row, col] * a[rank]) % q
        pivots.append(col)
        rank += 1
    return a, pivots


def rank_mod(mat: np.ndarray, q: int) -> int:
    return len(rref_mod(mat, q)[1])


def batch_columns_independent(h: np.ndarray, q: int, subsets: np.ndarray) -> np.ndarray:
    """For each row of ``subsets`` (column indices into h), report whether the
    selected columns of h are linearly independent over GF(q).

    Vectorized fraction-free elimination over the whole batch; intermediate
    products stay below q**2, which fits in int64 for every q that
    ``codec.PrimeField`` accepts.
    """
    b, w = subsets.shape
    a = h[:, subsets].transpose(1, 0, 2).astype(np.int64) % q  # (B, m, w)
    m = a.shape[1]
    ok = np.ones(b, dtype=bool)
    idx = np.arange(b)
    for j in range(min(w, m)):
        nz = a[:, j:, j] != 0
        has = nz.any(axis=1)
        ok &= has
        piv = np.argmax(nz, axis=1) + j
        piv[~has] = j
        rowj = a[idx, j, :].copy()
        a[idx, j, :] = a[idx, piv, :]
        a[idx, piv, :] = rowj
        pv = a[:, j, j]
        if j + 1 < m:
            below = a[:, j + 1:, :]
            factor = a[:, j + 1:, j][:, :, None]
            a[:, j + 1:, :] = (below * pv[:, None, None] - a[:, j, :][:, None, :] * factor) % q
    if w > m:
        ok[:] = False
    return ok
