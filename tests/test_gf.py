import sys
import threading
from collections import Counter
from itertools import combinations
from math import comb, isqrt, prod

import numpy as np
import pytest

from lrcdist import codec, gf
from lrcdist.errors import EnvelopeExceeded


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


def strong_probable_prime(q, a):
    """Whether odd q > 2 passes one Miller-Rabin round to base a."""
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, q)
    return x in (1, q - 1) or any(pow(x, 2**i, q) == q - 1 for i in range(1, s))


def test_is_prime_matches_trial_division():
    qs = np.arange(200_000)
    composite = qs < 2
    for d in range(2, 448):  # 447**2 < 200,000 < 448**2
        composite |= (qs % d == 0) & (qs != d)
    assert [gf.is_prime(q) for q in range(200_000)] == (~composite).tolist()
    carmichaels = [561, 1105, 1729, 2465, 2821, 6601, 41041, 825265, 321197185, 1299963601, 2301745249]
    for q in carmichaels:
        assert not gf.is_prime(q), q
    assert gf.is_prime(2**31 - 1) and gf.is_prime(3037000493)
    # past the table's last pseudoprime is_prime refuses to answer, for
    # primes and composites alike
    for q in (5394826801, 232250619601, 2**61 - 1, 3037000493 * (2**31 - 1)):
        with pytest.raises(EnvelopeExceeded):
            gf.is_prime(q)


def test_is_prime_pseudoprime_table():
    # each entry is composite and fools the bases up to its own, so the
    # bases after it are needed from there on; the last fools them all,
    # and from it on is_prime refuses to answer
    factors = [(23, 89), (829, 1657), (2251, 11251), (151, 751, 28351)]
    assert len(factors) == len(gf._PSEUDOPRIMES) == len(gf._WITNESSES)
    for i, (q, fs) in enumerate(zip(gf._PSEUDOPRIMES, factors)):
        assert prod(fs) == q
        assert all(strong_probable_prime(q, a) for a in gf._WITNESSES[: i + 1]), q
        if q < gf._PSEUDOPRIMES[-1]:
            assert not gf.is_prime(q), q
    assert gf._PSEUDOPRIMES == (2047, 1373653, 25326001, 3215031751)
    with pytest.raises(EnvelopeExceeded):
        gf.is_prime(gf._PSEUDOPRIMES[-1])


def test_is_prime_covers_every_field_order_the_package_accepts():
    # PrimeField refuses q > FIELD_ORDER_ENVELOPE before it asks is_prime,
    # so the four bases must be exact up to there, and one prime past it
    assert gf._PSEUDOPRIMES[-1] > codec.FIELD_ORDER_ENVELOPE
    q = gf.next_prime_above(codec.FIELD_ORDER_ENVELOPE)
    assert q > codec.FIELD_ORDER_ENVELOPE
    assert all(q % d for d in range(2, isqrt(q) + 1))
    with pytest.raises(EnvelopeExceeded):
        gf.is_prime(gf._PSEUDOPRIMES[-1])


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


def test_split_levels_give_the_same_answers(monkeypatch, layout_in_range):
    # a budget of a few entries splits every level down to single nodes,
    # and each split must keep every prefix's answer; every index of every
    # pivot step is in range
    budget = gf._ENTRY_BUDGET
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
                    monkeypatch.setattr(gf, "_ENTRY_BUDGET", budget)
                    assert whole == split
    assert len(layout_in_range) > 1000


def sparse_matrices(rng, count):
    """Random sparse matrices over small prime fields, some with a zero row
    or a zero column, with the least w at which some w columns are
    dependent, from rank_mod of every subset up to that level."""
    for _ in range(count):
        q = int(rng.choice([2, 3, 5, 7]))
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m, 10))
        mat = rng.integers(1, q, size=(m, n)) * (rng.random((m, n)) < rng.uniform(0.4, 0.9))
        if rng.random() < 0.15:
            mat[rng.integers(m)] = 0
        if rng.random() < 0.15:
            mat[:, rng.integers(n)] = 0
        mat = mat.astype(np.int64)
        distance = next(
            (w for w in range(1, m + 1) if any(gf.rank_mod(mat[:, s], q) < w for s in map(list, combinations(range(n), w)))),
            m + 1,
        )
        yield mat, q, distance


def count_cut_children(monkeypatch):
    """From here on, count the children ``gf._cut`` keeps and drops."""
    kept = {True: 0, False: 0}
    cut = gf._cut

    def counted(widths, hits, tables):
        result = cut(widths, hits, tables)
        kept[True] += len(result[0])
        kept[False] += int((widths - 1).sum()) - len(result[0])
        return result

    monkeypatch.setattr(gf, "_cut", counted)
    return kept


def test_circuit_cut_matches_per_subset_rank_at_every_level(monkeypatch):
    # the cut visits circuit candidates only, of every size up to w, and
    # must read a level dependent exactly when rank_mod finds w dependent
    # columns; with the cut at one light row it runs on every matrix here,
    # and zero rows and columns put the first dependent level anywhere
    # from 1 to m + 1
    monkeypatch.setattr(gf, "_cut_pays", lambda *args: True)
    kept = count_cut_children(monkeypatch)
    rng = np.random.default_rng(40)
    empty = np.empty(0, dtype=np.int64)
    distances = set()
    for mat, q, distance in sparse_matrices(rng, 300):
        distances.add(distance)
        for w in range(1, min(mat.shape) + 1):
            got = gf.batch_columns_independent(mat, q, empty, w)
            assert got == (w < distance), (mat.tolist(), q, w)
    assert distances == set(range(1, 8)) and kept[False] > 1000 and kept[True] > 1000


def test_circuit_cut_under_split_levels(monkeypatch, layout_in_range):
    # budgets of 8 and 300 entries split the cut's levels, and every index
    # of every pivot step, the cut's included, is in range
    monkeypatch.setattr(gf, "_cut_pays", lambda *args: True)
    kept = count_cut_children(monkeypatch)
    rng = np.random.default_rng(41)
    empty = np.empty(0, dtype=np.int64)
    for budget in (8, 300):
        monkeypatch.setattr(gf, "_ENTRY_BUDGET", budget)
        for mat, q, distance in sparse_matrices(rng, 80):
            for w in range(2, min(mat.shape) + 1):
                assert gf.batch_columns_independent(mat, q, empty, w) == (w < distance)
    assert kept[False] > 200 and len(layout_in_range) > 500


def test_circuit_cut_splits_levels_with_few_circuits(monkeypatch, layout_in_range):
    # a diagonal block beside one or two sparse columns, shuffled, has one
    # to a few circuits, so the cut scan must reach each at its own node:
    # where random matrices have many circuits, a half of a split level
    # that got another half's light-row masks still finds one of them
    rng = np.random.default_rng(42)
    empty = np.empty(0, dtype=np.int64)
    for budget in (8, 300):
        monkeypatch.setattr(gf, "_ENTRY_BUDGET", budget)
        for _ in range(60):
            q = int(rng.choice([2, 3, 5, 7]))
            m, e = int(rng.integers(3, 10)), int(rng.integers(1, 3))
            mat = np.zeros((m, m + e), dtype=np.int64)
            mat[np.arange(m), np.arange(m)] = rng.integers(1, q, size=m)
            mat[:, m:] = rng.integers(1, q, size=(m, e)) * (rng.random((m, e)) < rng.uniform(0.3, 0.9))
            mat = mat[:, rng.permutation(m + e)]
            for w in range(2, m + 1):
                monkeypatch.setattr(gf, "_cut_pays", lambda *args: False)
                plain = gf.batch_columns_independent(mat, q, empty, w)
                monkeypatch.setattr(gf, "_cut_pays", lambda *args: True)
                assert gf.batch_columns_independent(mat, q, empty, w) == plain, (mat.tolist(), q, w)
    assert len(layout_in_range) > 1000


@pytest.mark.parametrize("cut", [False, True])
def test_split_levels_make_the_same_children(monkeypatch, cut):
    # a scan that meets no dependent set visits every node of its tree, so
    # the children of its pivot steps, totalled by depth, cannot depend on
    # how its levels were split: a budget of a few hundred entries must make
    # the same totals as the default, in more steps on some scans, on the
    # plain scan and on the forced circuit cut alike
    monkeypatch.setattr(gf, "_cut_pays", lambda *args: cut)
    kept = count_cut_children(monkeypatch)
    pivot, children, steps = gf._pivot, Counter(), []

    def counted(a, columns, child_widths, q, depth):
        children[depth] += len(columns)
        steps.append(depth)
        return pivot(a, columns, child_widths, q, depth)

    monkeypatch.setattr(gf, "_pivot", counted)
    rng = np.random.default_rng(43)
    empty = np.empty(0, dtype=np.int64)
    budget, scans, split = gf._ENTRY_BUDGET, 0, 0
    for _ in range(40):
        q = int(rng.choice([5, 101, 3037000493]))
        m = int(rng.integers(3, 8))
        n = int(rng.integers(m + 1, 12))
        mat = (rng.integers(1, q, size=(m, n)) * (rng.random((m, n)) < rng.uniform(0.5, 0.9))).astype(np.int64)
        for w in range(2, m + 1):
            seen = []
            for entries in (budget, 300):
                monkeypatch.setattr(gf, "_ENTRY_BUDGET", entries)
                children.clear()
                steps.clear()
                seen.append((gf.batch_columns_independent(mat, q, empty, w), dict(children), len(steps)))
            if not seen[0][0]:  # a dependent set ends the scan where the split put it
                break
            assert seen[0][:2] == seen[1][:2], (mat.tolist(), q, w)
            scans += 1
            split += seen[1][2] > seen[0][2]
    assert scans > 100 and split > 50 and (kept[False] > 1000) == cut


def test_circuit_cut_finds_a_zero_column_whose_prefixes_are_all_cut(monkeypatch):
    # column 2 is zero, a circuit of one column, and the cut drops both {0}
    # and {1}, each of which meets the light row that ends on it once: only
    # the zero test of the empty prefix's own images finds the set
    monkeypatch.setattr(gf, "_cut_pays", lambda *args: True)
    mat = np.array([[1, 0, 0], [1, 1, 0]], dtype=np.int64)
    assert gf.batch_columns_independent(mat, 5, np.empty(0, dtype=np.int64), 2) is False


def planted_matrices(rng, count):
    """Random matrices of mixed shapes and fields, half of them with one
    column a combination of two others."""
    for i in range(count):
        q = int(rng.choice([2, 5, 101, 3037000493]))
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m, 10))
        mat = rng.integers(0, q, size=(m, n)).astype(np.int64)
        if i % 2 and n > 2:
            a, b = (int(x) for x in rng.integers(1, q, size=2))
            mat[:, -1] = (mat[:, 0].astype(object) * a + mat[:, 1].astype(object) * b) % q
        yield mat, q


def test_work_arrays_leak_nothing_into_a_later_scan(monkeypatch):
    # the scan keeps its work arrays between calls: scans of mixed shapes and
    # fields run in one process at a budget that splits every level, then at
    # one that splits some, then at the default, each after its work arrays
    # were filled with entries no step writes, and every answer must equal
    # rank_mod's, subset by subset
    rng = np.random.default_rng(12)
    cases = []
    for mat, q in planted_matrices(rng, 20):
        m, n = mat.shape
        for s in range(2):
            for extra in range(1, m - s + 1):
                for last, prefix in prefixes(n, s, extra):
                    want = independent_with_every_pair(mat, q, prefix.tolist(), last, extra)
                    cases.append((mat, q, prefix, extra, want))
    for budget in (8, 300, gf._ENTRY_BUDGET):
        monkeypatch.setattr(gf, "_ENTRY_BUDGET", budget)
        for i in rng.permutation(len(cases)):
            mat, q, prefix, extra, want = cases[i]
            for array in gf._work.arrays:
                array.fill(-1)
            assert gf.batch_columns_independent(mat, q, prefix, extra) == want
    assert len(cases) > 300 and {want for *_, want in cases} == {True, False}
    assert len(gf._work.arrays) > gf._IMAGES + 2


def test_threads_scan_with_their_own_work_arrays():
    # four threads (more than the two cores of a small runner) scan four
    # matrices at once, round after round, with a short switch interval: a
    # work array that two threads shared would mix their images
    rng = np.random.default_rng(13)
    mats = []
    for m, q in ((6, 101), (7, 10007), (8, 3037000493), (7, 1009)):
        # the last column is a combination of the first m - 1: levels below m
        # scan every subset, and level m finds a dependent set
        mat = rng.integers(0, q, size=(m, 14)).astype(np.int64)
        weights = rng.integers(1, q, size=m - 1).astype(object)
        mat[:, -1] = (mat[:, : m - 1].astype(object) @ weights) % q
        mats.append((mat, q))
    empty = np.empty(0, dtype=np.int64)

    def scans(mat, q):
        return [gf.batch_columns_independent(mat, q, empty, w) for w in range(2, mat.shape[0] + 1)]

    serial = [scans(mat, q) for mat, q in mats]
    assert serial == [[True] * (mat.shape[0] - 2) + [False] for mat, _ in mats]
    results = [[] for _ in mats]

    def run(i):
        for _ in range(15):
            results[i].append(scans(*mats[i]))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(mats))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[answers] * 15 for answers in serial]
