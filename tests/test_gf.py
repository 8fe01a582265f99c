from itertools import combinations
from math import comb

import numpy as np

from lrcdist import gf


def test_prime_helpers():
    primes = [2, 3, 5, 7, 11, 13, 101, 661, 21841]
    for p in primes:
        assert gf.is_prime(p)
    for c in [0, 1, 4, 9, 15, 21, 100, 21843]:
        assert not gf.is_prime(c)
    assert gf.next_prime_above(21840) == 21841
    assert gf.next_prime_above(660) == 661
    assert gf.next_prime_above(1) == 2
    assert gf.next_prime_above(2) == 3


def test_rref_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = int(rng.choice([2, 3, 5, 7, 13]))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(rows, 8))
        mat = rng.integers(0, q, size=(rows, cols)).astype(np.int64)
        reduced, pivots = gf.rref_mod(mat, q)
        assert len(pivots) == gf.rank_mod(mat, q)
        for i, piv in enumerate(pivots):
            col = reduced[:, piv]
            assert col[i] == 1
            assert (np.delete(col, i) == 0).all()
        # row space is preserved: each original row reduces to zero against R
        stacked = np.vstack([reduced, mat])
        assert gf.rank_mod(stacked, q) == len(pivots)


def prefixes(n, s, extra=2):
    """Every s-column prefix with at least ``extra`` later columns, as a 1-D
    array the kernel takes, with its last column (-1 for the empty prefix)."""
    for last in range(s - 1, n - extra) if s else [-1]:
        for head in combinations(range(last), s - 1) if s else [()]:
            yield last, np.array([*head, last][:s], dtype=np.int64)


def independent_with_every_pair(mat, q, prefix, last, extra=2):
    """rank_mod of the prefix plus each ``extra`` later columns (a pair by
    default), one subset at a time."""
    subsets = combinations(range(last + 1, mat.shape[1]), extra)
    return all(gf.rank_mod(mat[:, [*prefix, *cols]], q) == len(prefix) + extra for cols in subsets)


def test_prefix_extensions_match_per_subset_rank():
    # every prefix, against rank_mod of the prefix plus each pair of later
    # columns; s = m and s = m + 1 (and s = m - 1) leave fewer than two rows
    # below the pivots, and the largest accepted field checks the int64 headroom
    rng = np.random.default_rng(2)
    compared = 0
    for _ in range(30):
        q = int(rng.choice([2, 3, 5, 101, 3037000493]))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 8))
        mat = rng.integers(0, q, size=(m, n)).astype(np.int64)
        for s in range(m + 2):
            for last, prefix in prefixes(n, s):
                got = gf.batch_columns_independent(mat, q, prefix, extra=2)
                assert type(got) is bool
                assert got == independent_with_every_pair(mat, q, prefix.tolist(), last)
                compared += comb(n - 1 - last, 2)
    assert compared > 500


def test_batched_wide_subsets_always_dependent():
    # s + 2 > m columns in m rows: every prefix reads dependent
    mat = np.array([[1, 2, 3, 4, 1], [0, 1, 4, 1, 3]], dtype=np.int64)
    for prefix in ([0], [0, 1], [0, 1, 2]):
        assert gf.batch_columns_independent(mat, 5, np.array(prefix, dtype=np.int64), extra=2) is False
        assert not independent_with_every_pair(mat, 5, prefix, prefix[-1])


def test_planted_dependencies_are_found():
    # over the largest accepted field, random columns are independent; a zero
    # column, a multiple of an earlier column and a combination of two
    # columns each plant one dependency that the kernel must find at its level
    q = 3037000493
    rng = np.random.default_rng(3)
    base = rng.integers(1, q, size=(4, 9)).astype(np.int64)
    zero, parallel, triple = base.copy(), base.copy(), base.copy()
    zero[:, 5] = 0
    parallel[:, 6] = base[:, 2].astype(object) * int(rng.integers(2, q)) % q
    a, b = (int(x) for x in rng.integers(1, q, size=2))
    triple[:, 7] = (base[:, 1].astype(object) * a + base[:, 4].astype(object) * b) % q
    # the smallest prefix length at which some prefix reads dependent; with
    # s = m - 1 = 3 every prefix is dependent
    for mat, first in ((base, 3), (zero, 0), (parallel, 0), (triple, 1)):
        found = []
        for s in range(4):
            for last, prefix in prefixes(9, s):
                got = gf.batch_columns_independent(mat, q, prefix, extra=2)
                assert got == independent_with_every_pair(mat, q, prefix.tolist(), last)
                if not got:
                    found.append(s)
        assert min(found) == first


def test_extensions_of_every_depth_match_per_subset_rank():
    # every prefix with every number of later columns, against rank_mod of
    # each subset; extra > m - s leaves no room and reads dependent, and the
    # largest accepted field checks the int64 headroom of every pivot step
    rng = np.random.default_rng(4)
    compared = {}
    for _ in range(30):
        q = int(rng.choice([2, 3, 5, 101, 3037000493]))
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m, 9))
        mat = rng.integers(0, q, size=(m, n)).astype(np.int64)
        for s in range(n):
            for extra in range(1, n - s + 1):
                for last, prefix in prefixes(n, s, extra):
                    got = gf.batch_columns_independent(mat, q, prefix, extra=extra)
                    assert type(got) is bool
                    assert got == independent_with_every_pair(mat, q, prefix.tolist(), last, extra)
                    compared[extra] = compared.get(extra, 0) + comb(n - 1 - last, extra)
    assert min(compared[extra] for extra in range(1, 6)) > 200


def test_planted_dependencies_are_found_at_their_own_depth():
    # a zero column, a multiple of an earlier column and a combination of two
    # columns plant dependent sets of 1, 2 and 3 columns over the largest
    # accepted field; with any prefix length s, the kernel finds them exactly
    # when s + extra reaches that size, and 4 random rows leave every 5
    # columns dependent
    q = 3037000493
    rng = np.random.default_rng(3)
    base = rng.integers(1, q, size=(4, 9)).astype(np.int64)
    zero, parallel, triple = base.copy(), base.copy(), base.copy()
    zero[:, 5] = 0
    parallel[:, 6] = base[:, 2].astype(object) * int(rng.integers(2, q)) % q
    a, b = (int(x) for x in rng.integers(1, q, size=2))
    triple[:, 7] = (base[:, 1].astype(object) * a + base[:, 4].astype(object) * b) % q
    for mat, size in ((base, 5), (zero, 1), (parallel, 2), (triple, 3)):
        for w in range(1, 6):
            for s in range(w):
                found = False
                for last, prefix in prefixes(9, s, w - s):
                    got = gf.batch_columns_independent(mat, q, prefix, extra=w - s)
                    assert got == independent_with_every_pair(mat, q, prefix.tolist(), last, w - s)
                    found |= not got
                assert found == (w >= size)


def test_split_levels_give_the_same_answers(monkeypatch):
    # a budget of a few entries splits every level down to single nodes,
    # and each split must keep every prefix's answer
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = int(rng.choice([3, 101, 3037000493]))
        m = int(rng.integers(3, 6))
        n = int(rng.integers(m + 1, 10))
        mat = rng.integers(0, q, size=(m, n)).astype(np.int64)
        for s in range(3):
            for extra in range(2, m - s + 1):
                for _, prefix in prefixes(n, s, extra):
                    whole = gf.batch_columns_independent(mat, q, prefix, extra=extra)
                    monkeypatch.setattr(gf, "_ENTRY_BUDGET", 8)
                    split = gf.batch_columns_independent(mat, q, prefix, extra=extra)
                    monkeypatch.undo()
                    assert whole == split
