from itertools import combinations

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


def test_prefix_extensions_match_per_subset_rank():
    # every prefix and every later column, against rank_mod of the prefix and
    # of the prefix plus that column; s = m and s = m + 1 leave no row below
    # the pivots, and the largest accepted field checks the int64 headroom
    rng = np.random.default_rng(2)
    compared = 0
    for _ in range(30):
        q = int(rng.choice([2, 3, 5, 101, 3037000493]))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 8))
        mat = rng.integers(0, q, size=(m, n)).astype(np.int64)
        for s in range(m + 2):
            for last in range(s - 1, n - 1) if s else [-1]:
                heads = [c + (last,) for c in combinations(range(last), s - 1)] if s else [()]
                prefixes = np.array(heads, dtype=np.int64).reshape(len(heads), s)
                fast = gf.batch_columns_independent(mat, q, prefixes)
                assert fast.shape == (len(heads), n - 1 - last)
                for row, prefix in zip(fast, heads):
                    prefix_ok = gf.rank_mod(mat[:, list(prefix)], q) == s
                    for c, got in zip(range(last + 1, n), row):
                        extended_ok = gf.rank_mod(mat[:, list(prefix) + [c]], q) == s + 1
                        assert got == (prefix_ok and extended_ok)
                        compared += 1
    assert compared > 500


def test_batched_wide_subsets_always_dependent():
    mat = np.array([[1, 2, 3, 4], [0, 1, 4, 1]], dtype=np.int64)
    for prefix in ([0, 1], [0, 1, 2]):
        ok = gf.batch_columns_independent(mat, 5, np.array([prefix], dtype=np.int64))
        assert ok.shape == (1, 4 - len(prefix)) and not ok.any()
