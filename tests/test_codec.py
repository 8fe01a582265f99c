import copy
import dataclasses
import json
import pickle
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcdist import codec, gf
from lrcdist.codec import (
    FIELD_ORDER_ENVELOPE,
    LinearCode,
    PrimeField,
    build_parity_check,
    code_from_json,
    code_to_json,
    construct_optimal_lrc,
    default_field,
    encode,
    min_distance,
    repair_symbol,
    verify_code,
    verify_locality,
)
from lrcdist.decider import decide
from lrcdist.errors import (
    BadArgs,
    DegenerateCode,
    EnvelopeExceeded,
    InvalidParams,
    NoLocalCover,
    NotAchievable,
    RetriesExhausted,
)
from lrcdist.params import derive_params
from lrcdist.tanner import graph_to_pruned, p2f, tanner_min_distance


def brute_min_weight(code):
    """Independent oracle: smallest Hamming weight over all nonzero codewords.

    Enumerates the full message space of the code's null-space basis; only
    usable when q**k is small.
    """
    q = code.field.q
    p = code.params
    reduced, pivots = gf.rref_mod(code.H, q)
    frees = [j for j in range(p.n) if j not in set(pivots)]
    assert len(frees) == p.k
    basis = []
    for f_idx, j in enumerate(frees):
        word = np.zeros(p.n, dtype=np.int64)
        word[j] = 1
        for i, piv in enumerate(pivots):
            word[piv] = (-int(reduced[i, j])) % q
        basis.append(word)
    basis = np.array(basis)
    assert q ** p.k <= 1 << 20
    best = p.n + 1
    msgs = np.zeros(p.k, dtype=np.int64)
    total = q ** p.k
    for idx in range(1, total):
        # mixed-radix increment
        i = 0
        while True:
            msgs[i] += 1
            if msgs[i] < q:
                break
            msgs[i] = 0
            i += 1
        word = (msgs @ basis) % q
        w = int((word != 0).sum())
        if w < best:
            best = w
    return best


def tanner_for(n, k, r):
    p = derive_params(n, k, r)
    d = decide(p)
    return p, p2f(graph_to_pruned(d.witness, p))


def test_build_gf2_all_ones_on_adjacency():
    p, t = tanner_for(12, 7, 3)
    code = build_parity_check(t, PrimeField(2), seed=0)
    for i, check in enumerate(t.local_checks):
        row = code.H[i]
        assert set(np.nonzero(row)[0]) == set(check)
        assert (row[sorted(check)] == 1).all()
    for i in range(len(t.local_checks), p.n - p.k):
        assert (code.H[i] == 1).all()


def test_build_deterministic_in_seed():
    p, t = tanner_for(16, 9, 4)
    f = default_field(p)
    a = build_parity_check(t, f, seed=5)
    b = build_parity_check(t, f, seed=5)
    c = build_parity_check(t, f, seed=6)
    assert (a.H == b.H).all()
    assert (a.H != c.H).any()


def test_min_distance_examples():
    params = derive_params(4, 2, 1)
    h = np.array([[1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.int64)
    code = LinearCode(params=params, field=PrimeField(2), H=h)
    assert min_distance(code) == 2

    h_zero_col = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.int64)
    code = LinearCode(params=params, field=PrimeField(2), H=h_zero_col)
    assert min_distance(code) == 1


def test_min_distance_degenerate():
    params = derive_params(4, 2, 1)
    h = np.array([[1, 1, 0, 0], [2, 2, 0, 0]], dtype=np.int64)
    code = LinearCode(params=params, field=PrimeField(3), H=h)
    with pytest.raises(DegenerateCode):
        min_distance(code)


def test_min_distance_envelope():
    params = derive_params(24, 12, 3)
    code = LinearCode(params=params, field=PrimeField(2), H=np.zeros((12, 24), dtype=np.int64))
    with pytest.raises(EnvelopeExceeded):
        min_distance(code)
    # n alone bounds the search; the claim is only a label, so a (20, 8, 1)
    # code claimed at 9 is measured
    code = dataclasses.replace(construct_optimal_lrc(derive_params(20, 8, 1), seed=0), claimed_distance=9)
    assert min_distance(code) == 6
    assert verify_code(code) == (True, True, 6)


def brute_weight_codes():
    """Full-rank codes from witnesses, with q**k enumerable by brute_min_weight."""
    for (n, k, r, q) in [(6, 3, 3, 7), (6, 2, 2, 11), (9, 4, 2, 3), (8, 5, 2, 5)]:
        p = derive_params(n, k, r)
        d = decide(p)
        if d.value != p.d_star:
            continue
        t = p2f(graph_to_pruned(d.witness, p))
        for seed in range(3):
            code = build_parity_check(t, PrimeField(q), seed=seed)
            if gf.rank_mod(code.H, q) == p.n - p.k:
                yield code


def test_min_distance_matches_brute_weight():
    # dual-method agreement on instances with q**k enumerable
    compared = 0
    for code in brute_weight_codes():
        assert min_distance(code) == brute_min_weight(code)
        compared += 1
    assert compared >= 6


def test_verify_locality():
    p, t = tanner_for(16, 9, 4)
    code = build_parity_check(t, default_field(p), seed=0)
    assert verify_locality(code)
    # zero out a local row: its variables may lose their only light cover
    broken = code.H.copy()
    broken[0, :] = 0
    code_broken = LinearCode(params=p, field=code.field, H=broken)
    assert not verify_locality(code_broken)
    # a coordinate present only in heavy rows fails
    params = derive_params(4, 2, 1)
    h = np.array([[1, 1, 1, 1], [1, 2, 3, 4]], dtype=np.int64)
    heavy = LinearCode(params=params, field=PrimeField(5), H=h)
    assert not verify_locality(heavy)


def test_construct_verified_end_to_end():
    p = derive_params(16, 9, 4)
    code = construct_optimal_lrc(p, seed=0)
    assert code.verified
    assert code.claimed_distance == 6
    assert code.attempts == 1
    assert code.field.q == 21841  # smallest prime above 5 * C(16, 5) = 21840
    assert min_distance(code) == 6
    assert verify_locality(code)

    code = construct_optimal_lrc(derive_params(12, 7, 3), seed=0)
    assert code.verified and code.claimed_distance == 4


def test_construct_not_achievable():
    with pytest.raises(NotAchievable):
        construct_optimal_lrc(derive_params(10, 4, 2))


def test_construct_small_field_may_exhaust_retries():
    # GF(2) cannot give distance 6 here: the Griesmer bound rules out every
    # binary [16, 9, 6] code (6+3+2+1+1+1+1+1+1 = 17 > 16), so no number of
    # retries succeeds, and every failure is reported rather than hidden
    p = derive_params(16, 9, 4)
    with pytest.raises(RetriesExhausted) as exc:
        construct_optimal_lrc(p, field=PrimeField(2), seed=0, max_retries=4)
    assert exc.value.attempts == 4
    assert "succeed" not in str(exc.value)


def test_encode_and_repair_round_trip():
    rng = np.random.default_rng(42)
    for (n, k, r) in [(16, 9, 4), (12, 7, 3), (6, 3, 3)]:
        p = derive_params(n, k, r)
        code = construct_optimal_lrc(p, seed=1)
        for _ in range(100):
            msg = rng.integers(0, code.field.q, size=k)
            word = encode(code, msg)
            assert not (code.H @ word % code.field.q).any()
            j = int(rng.integers(0, n))
            erased: list = [int(x) for x in word]
            erased[j] = None
            assert repair_symbol(code, erased) == int(word[j])


def test_verify_code_checks_the_envelope_before_row_reducing(monkeypatch):
    # a long code file must fail at once, not after the plan's row reduction of H
    calls = []
    rref_mod = gf.rref_mod
    monkeypatch.setattr(gf, "rref_mod", lambda *a: calls.append(a) or rref_mod(*a))
    code = LinearCode(params=derive_params(21, 10, 2), field=PrimeField(3),
                      H=np.random.default_rng(0).integers(0, 3, size=(11, 21)))
    with pytest.raises(EnvelopeExceeded):
        verify_code(code)
    assert calls == []


def test_encode_row_reduces_once_per_code(monkeypatch):
    code = construct_optimal_lrc(derive_params(16, 9, 4), seed=0)
    calls = []
    rref_mod = gf.rref_mod
    monkeypatch.setattr(gf, "rref_mod", lambda *a: calls.append(a) or rref_mod(*a))
    rng = np.random.default_rng(5)
    for _ in range(16):
        word = encode(code, rng.integers(0, code.field.q, size=code.params.k))
        assert not (code.H @ word % code.field.q).any()
    assert len(calls) <= 1


def test_a_code_cannot_change_after_it_is_checked():
    # a verified=True from construct describes the H it sits on: no field can
    # be assigned, and H cannot be written, in place or after setflags
    code = construct_optimal_lrc(derive_params(16, 9, 4), seed=0)
    for name, value in (("H", np.zeros_like(code.H)), ("params", derive_params(12, 7, 3)),
                        ("field", PrimeField(2)), ("claimed_distance", 5)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(code, name, value)
    with pytest.raises(ValueError):
        code.H[0, 0] = 1
    with pytest.raises(ValueError):
        code.H.setflags(write=True)
    with pytest.raises(ValueError):
        code.H[0, :] = 0
    assert code.verified and verify_code(code) == (True, True, 6)
    # an unpickled or copied code is made through the same check
    for back in (pickle.loads(pickle.dumps(code)), copy.deepcopy(code)):
        assert not back.H.flags.writeable and (back.H == code.H).all() and back.verified
    # a relabelled code is a new one, checked again, with the same verify_code result
    for claim in (None, 5, 6, 7):
        relabelled = dataclasses.replace(code, claimed_distance=claim)
        assert relabelled.claimed_distance == claim
        assert verify_code(relabelled) == verify_code(code)


def test_alternating_codes_row_reduce_once_per_code(monkeypatch):
    # each code keeps its own plan, so six codes used round-robin, each with
    # 16 encodes and 16 repairs, make one row reduction apiece
    codes = [construct_optimal_lrc(derive_params(*nkr), seed=0)
             for nkr in ((16, 9, 4), (12, 7, 3), (13, 7, 3), (6, 3, 3), (20, 12, 5), (4, 2, 1))]
    calls = []
    rref_mod = gf.rref_mod
    monkeypatch.setattr(gf, "rref_mod", lambda *a: calls.append(a) or rref_mod(*a))
    rng = np.random.default_rng(12)
    fresh = [dataclasses.replace(code) for code in codes]  # no plan read yet
    for _ in range(16):
        for code in fresh:
            word = encode(code, rng.integers(0, code.field.q, size=code.params.k))
            received: list = word.tolist()
            j = int(rng.integers(0, code.params.n))
            received[j] = None
            assert repair_symbol(code, received) == word[j]
    assert len(calls) == 6


def test_repair_touches_at_most_r_other_symbols():
    p = derive_params(12, 7, 3)
    code = construct_optimal_lrc(p, seed=0)
    weights = (code.H != 0).sum(axis=1)
    assert (weights[: p.n1] <= p.r + 1).all()


def test_repair_gf2():
    # (4, 2, 1) verifies over GF(2): two disjoint weight-2 rows, distance 2;
    # repair of an erased symbol is the XOR of its pair partner
    code = construct_optimal_lrc(derive_params(4, 2, 1), field=PrimeField(2), seed=0)
    assert code.verified
    word = encode(code, [1, 0])
    erased: list = [int(x) for x in word]
    erased[3] = None
    assert repair_symbol(code, erased) == int(word[3])


def test_repair_without_a_light_cover_raises_no_local_cover():
    # coordinates 2 and 3 lie only in the heavy row 1: the plan holds no cover
    # for them, while 0 and 1 repair through the light row 0
    h = np.array([[1, 1, 0, 0], [1, 2, 3, 4]], dtype=np.int64)
    code = LinearCode(params=derive_params(4, 2, 1), field=PrimeField(5), H=h)
    assert not verify_locality(code) and not row_scan_locality(h, 1)
    word = encode(code, [2, 3])
    for j in range(4):
        received: list = word.tolist()
        received[j] = None
        if j < 2:
            assert repair_symbol(code, received) == word[j]
        else:
            with pytest.raises(NoLocalCover):
                repair_symbol(code, received)


def test_every_reader_of_the_parity_check_matrix_rejects_a_malformed_one():
    # an entry equal to q is zero mod q, yet it used to count as a light-row
    # cover; a matrix of the wrong shape got a rank and a distance; a float
    # matrix was truncated.  Each reader of H, and code_from_json, refuses them
    rng = np.random.default_rng(2)
    p4, p16, gf5 = derive_params(4, 2, 1), derive_params(16, 9, 4), PrimeField(5)
    malformed = [
        (p4, gf5, np.array([[1, 5, 0, 0], [0, 0, 1, 1]])),
        (p4, gf5, np.array([[1, -1, 0, 0], [0, 0, 1, 1]])),
        (p16, PrimeField(21841), rng.integers(1, 21841, size=(7, 20))),
        (p4, gf5, np.array([[1.5, 1, 0, 0], [0, 0, 1, 1]])),
        (p4, gf5, np.array([[True, True, False, False], [False, False, True, True]])),
    ]
    readers = (
        verify_code,
        verify_locality,
        min_distance,
        lambda c: encode(c, [1] * c.params.k),
        lambda c: repair_symbol(c, [None] + [1] * (c.params.n - 1)),
    )
    for params, field, h in malformed:
        for read in readers:
            with pytest.raises(BadArgs):
                read(LinearCode(params=params, field=field, H=h))
        data = {"n": params.n, "k": params.k, "r": params.r, "q": field.q, "H": h.tolist(),
                "claimed_distance": None, "verified": False}
        with pytest.raises(BadArgs):
            code_from_json(data)
    # a nested list has no dtype to check
    for read in readers:
        with pytest.raises(BadArgs):
            read(LinearCode(params=p4, field=gf5, H=[[1, 1, 0, 0], [0, 0, 1, 1]]))
    # an unsigned or narrower integer H is read as the same int64 matrix
    code = construct_optimal_lrc(derive_params(12, 7, 3), seed=0)
    msg = [3, 1, 4, 1, 5, 9, 2]
    narrow = LinearCode(params=code.params, field=code.field, H=code.H.astype(np.uint16))
    assert verify_code(narrow) == verify_code(code)
    assert (encode(narrow, msg) == encode(code, msg)).all()


def test_a_code_refuses_params_and_fields_that_derive_params_and_prime_field_did_not_make():
    # params edited to r = 5 > k = 2 were accepted, and verify_locality then
    # read the weight-6 rows as light covers; a plain tuple as params, or an
    # int as the field, died with a raw AttributeError
    p, h = derive_params(6, 2, 1), np.ones((4, 6), dtype=np.int64)
    for params, field in ((p._replace(r=5), PrimeField(5)), (tuple(p), PrimeField(5)), (p, 5)):
        with pytest.raises(BadArgs):
            LinearCode(params=params, field=field, H=h)
    assert not verify_locality(LinearCode(params=p, field=PrimeField(5), H=h))


def test_repair_input_validation():
    code = construct_optimal_lrc(derive_params(12, 7, 3), seed=0)
    for word in ([0] * 12, [None, 0, 0, 0], [None] + [0] * 12, [None] * 2 + [0] * 10,
                 [None, 1.5] + [0] * 10, [None, "1"] + [0] * 10, [None] + [True] * 11,
                 [None, 2**70] + [0] * 10):
        with pytest.raises(BadArgs):
            repair_symbol(code, word)


def test_encode_rejects_malformed_messages():
    code = construct_optimal_lrc(derive_params(12, 7, 3), seed=0)
    for msg in ([0] * 6, [0] * 8, [1.5] + [0] * 6, ["1"] * 7, [True] * 7, [2**70] + [0] * 6,
                [[0]] * 7, [[0], 1, 2, 3, 4, 5, 6], np.zeros(7), None):
        with pytest.raises(BadArgs):
            encode(code, msg)
    # every NumPy integer dtype is taken, and reduced mod q like a list
    msg = [3, 1, 4, 1, 5, 9, 2]
    word = encode(code, msg)
    for dtype in (np.int8, np.uint16, np.int32, np.uint32, np.int64):
        assert (encode(code, np.array(msg, dtype=dtype)) == word).all()
    assert (encode(code, [x + code.field.q for x in msg]) == word).all()


def test_a_bool_among_integers_is_rejected():
    # NumPy would read [True, 2, ...] as the integers [1, 2, ...]
    code = construct_optimal_lrc(derive_params(12, 7, 3), seed=0)
    for msg in ([True, 2, 3, 4, 5, 6, 7], (1, 2, 3, False, 5, 6, 7), [1, 2, np.True_, 4, 5, 6, 7]):
        with pytest.raises(BadArgs):
            encode(code, msg)
    word = encode(code, [3, 1, 4, 1, 5, 9, 2]).tolist()
    for j, flag in ((1, True), (5, np.False_)):
        received = [*word]
        received[0] = None
        received[j] = flag
        with pytest.raises(BadArgs):
            repair_symbol(code, received)


@pytest.mark.parametrize("kwargs", [{"seed": 1.5}, {"seed": True}, {"seed": "0"}, {"seed": -1},
                                    {"max_retries": 2.5}, {"max_retries": True}, {"max_retries": 0}])
def test_construct_rejects_non_integer_seed_or_retries(kwargs):
    with pytest.raises(BadArgs):
        construct_optimal_lrc(derive_params(12, 7, 3), **kwargs)


def test_json_round_trip():
    code = construct_optimal_lrc(derive_params(12, 7, 3), seed=0)
    data = code_to_json(code)
    back = code_from_json(data)
    assert (back.H == code.H).all()
    assert back.claimed_distance == code.claimed_distance
    assert back.verified
    assert back.field.q == code.field.q


def test_json_malformed():
    with pytest.raises(BadArgs):
        code_from_json({"n": 12, "k": 7})
    code = construct_optimal_lrc(derive_params(12, 7, 3), seed=0)
    data = code_to_json(code)
    data["q"] = 10  # not prime
    with pytest.raises(BadArgs):
        code_from_json(data)
    data["q"] = 661
    data["H"][0][0] = 661  # out of range
    with pytest.raises(BadArgs):
        code_from_json(data)


def random_full_rank_codes(count=25):
    """Random full-rank parity-check matrices over small fields, with no
    locality structure."""
    rng = np.random.default_rng(9)
    made = 0
    while made < count:
        q = int(rng.choice([2, 3, 5, 7]))
        n, k, r = [(6, 3, 3), (6, 2, 2), (8, 4, 2), (5, 2, 2)][made % 4]
        p = derive_params(n, k, r)
        h = rng.integers(0, q, size=(n - k, n)).astype(np.int64)
        if gf.rank_mod(h, q) != n - k:
            continue
        yield LinearCode(params=p, field=PrimeField(q), H=h)
        made += 1


def test_min_distance_on_random_matrices():
    # the distance search does not rely on locality structure; random
    # full-rank matrices must agree with the codeword-weight oracle too
    agreed = 0
    for code in random_full_rank_codes():
        assert min_distance(code) == brute_min_weight(code)
        agreed += 1
    assert agreed == 25


def count_pivot_steps(monkeypatch):
    """Count the kernel's pivot calls from here on."""
    calls = []
    pivot = gf._pivot
    monkeypatch.setattr(gf, "_pivot", lambda *args: calls.append(1) or pivot(*args))
    return calls


def test_min_distance_with_split_levels(monkeypatch, layout_in_range):
    # a budget of a few hundred entries splits the scan's levels into halves,
    # which no code of length <= 20 needs at the real budget; every distance
    # must stay the same, and some level must have been split
    codes = [*random_full_rank_codes(), *brute_weight_codes()]
    calls = count_pivot_steps(monkeypatch)
    whole = [min_distance(code) for code in codes]
    unsplit = len(calls)
    monkeypatch.setattr(gf, "_ENTRY_BUDGET", 300)
    calls.clear()
    assert [min_distance(code) for code in codes] == whole == [brute_min_weight(code) for code in codes]
    assert len(calls) > unsplit


@pytest.mark.parametrize("planted, last_half", [((0, 1, 2), True), ((5, 6, 7), False)])
def test_min_distance_finds_a_set_in_either_half_of_a_split(monkeypatch, layout_in_range, planted, last_half):
    # one dependent triple among 8 random columns over the largest field; at
    # level 3 the scan splits the nodes {0}, ..., {5} and takes the later half
    # first, so it meets {5, 6, 7} in its first half with no more pivot steps
    # than an unsplit scan, and {0, 1, 2} only in its last half, after more
    q = 3037000493
    rng = np.random.default_rng(6)
    h = rng.integers(1, q, size=(4, 8)).astype(np.int64)
    u, v, w = planted
    a, b = (int(x) for x in rng.integers(1, q, size=2))
    h[:, w] = (h[:, u].astype(object) * a + h[:, v].astype(object) * b) % q
    dependent = [c for k in (2, 3) for c in combinations(range(8), k) if gf.rank_mod(h[:, list(c)], q) < k]
    assert dependent == [planted]
    code = LinearCode(params=derive_params(8, 4, 2), field=PrimeField(q), H=h)
    calls = count_pivot_steps(monkeypatch)
    assert min_distance(code) == 3
    unsplit = len(calls)
    monkeypatch.setattr(gf, "_ENTRY_BUDGET", 300)
    calls.clear()
    assert min_distance(code) == 3
    assert (len(calls) > unsplit) == last_half


def test_distance_never_exceeds_bound():
    for (n, k, r) in [(16, 9, 4), (12, 7, 3), (13, 7, 3), (6, 3, 3)]:
        p = derive_params(n, k, r)
        code = construct_optimal_lrc(p, seed=0)
        assert min_distance(code) <= p.d_star


def test_prime_field_validation():
    with pytest.raises(BadArgs):
        PrimeField(9)
    with pytest.raises(BadArgs):
        PrimeField(1)
    # 661.0 passes the range and primality tests but breaks pow(x, -1, q) later
    with pytest.raises(BadArgs):
        PrimeField(661.0)
    assert PrimeField(2).q == 2


def test_prime_field_rejects_orders_beyond_int64():
    # (q - 1)**2 must fit in int64; 3037000493 is the largest prime that does.
    # 2**61 - 1 is prime too, and is rejected before trial division starts
    assert FIELD_ORDER_ENVELOPE == 3_037_000_500
    assert PrimeField(3037000493).q == 3037000493
    for q in (3037000507, 8589934609, 2**61 - 1):
        with pytest.raises(BadArgs):
            PrimeField(q)


def test_encode_and_repair_over_largest_mersenne_field():
    # over q = 2**31 - 1 a dot product of reduced symbols overflows int64
    # unless every product is reduced mod q before the sum
    code = construct_optimal_lrc(derive_params(20, 12, 5), field=PrimeField(2**31 - 1), seed=0)
    assert code.verified
    rng = np.random.default_rng(3)
    for _ in range(16):
        msg = rng.integers(0, code.field.q, size=code.params.k)
        word = encode(code, msg)
        assert not (code.H.astype(object) @ word.astype(object) % code.field.q).any()
        j = int(rng.integers(0, code.params.n))
        erased: list = [int(x) for x in word]
        erased[j] = None
        assert repair_symbol(code, erased) == int(word[j])


@pytest.mark.parametrize(
    "key, value",
    [("H", 1.5), ("H", True), ("H", 2**70), ("claimed_distance", "4"), ("claimed_distance", 4.0),
     ("verified", "no"), ("verified", 1)],
)
def test_json_rejects_mistyped_values(key, value):
    # a float or bool entry must not be truncated into a different matrix
    data = code_to_json(construct_optimal_lrc(derive_params(12, 7, 3), seed=0))
    if key == "H":
        data["H"][0][0] = value
    else:
        data[key] = value
    with pytest.raises(BadArgs):
        code_from_json(data)


def test_verify_code_reports_rank_locality_and_distance():
    code = construct_optimal_lrc(derive_params(12, 7, 3), seed=0)
    assert verify_code(code) == (True, True, 4)
    h = code.H.copy()
    h[1] = h[0]
    altered = LinearCode(params=code.params, field=code.field, H=h)
    assert verify_code(altered) == (False, False, None)


def test_construct_computes_the_rank_once_per_attempt(monkeypatch):
    # one row reduction per attempt; the last one's plan then serves 16
    # encodes and 16 repairs with no other
    calls = []
    rref_mod = gf.rref_mod
    monkeypatch.setattr(gf, "rref_mod", lambda *a: calls.append(a) or rref_mod(*a))
    rng = np.random.default_rng(4)
    for field, attempts in ((None, 1), (PrimeField(101), 3)):
        calls.clear()
        code = construct_optimal_lrc(derive_params(16, 9, 4), field=field, seed=0)
        assert code.verified and code.attempts == attempts
        assert len(calls) == attempts
        for _ in range(16):
            word = encode(code, rng.integers(0, code.field.q, size=code.params.k))
            received: list = word.tolist()
            j = int(rng.integers(0, code.params.n))
            received[j] = None
            assert repair_symbol(code, received) == word[j]
        assert len(calls) == attempts


def envelope_params():
    """Every (n, k, r) inside construct_optimal_lrc's distance envelope, n <= 20."""
    for n in range(2, codec.DISTANCE_LENGTH_ENVELOPE + 1):
        for k in range(1, n):
            for r in range(1, k + 1):
                try:
                    yield derive_params(n, k, r)
                except InvalidParams:
                    continue


@lru_cache(maxsize=1)
def admitted_tanner_graphs():
    """(params, full Tanner graph) of every (n, k, r) that construct_optimal_lrc
    builds: those of the envelope whose decision is d*."""
    graphs = []
    for p in envelope_params():
        d = decide(p)
        if d.value == p.d_star:
            graphs.append((p, p2f(graph_to_pruned(d.witness, p))))
    return graphs


def per_entry_fill(t, q, seed):
    """build_parity_check's fill as one draw per local entry, then one per global row."""
    rng = np.random.default_rng(seed)
    n, k = t.params.n, t.params.k
    h = np.zeros((n - k, n), dtype=np.int64)
    for i, check in enumerate(t.local_checks):
        for j in sorted(check):
            h[i, j] = int(rng.integers(1, q))
    for i in range(len(t.local_checks), n - k):
        h[i, :] = rng.integers(1, q, size=n)
    return h


def row_scan_repair(h, q, r, word, j):
    """repair_symbol as a scan of the rows on every call: the lowest-index row
    of weight <= r + 1 that is nonzero on j, and the symbol it gives."""
    weights = (h != 0).sum(axis=1)
    for i in range(h.shape[0]):
        if weights[i] <= r + 1 and h[i, j] != 0:
            acc = 0
            for l in np.nonzero(h[i])[0]:
                if l != j:
                    acc = (acc + int(h[i, l]) * int(word[l])) % q
            return i, (-acc * pow(int(h[i, j]), -1, q)) % q
    return None, None


def row_scan_locality(h, r):
    """verify_locality as a scan of the rows: every column is nonzero in some
    row of weight <= r + 1."""
    light = (h != 0).sum(axis=1) <= r + 1
    return bool((h[light] != 0).any(axis=0).all())


@pytest.mark.parametrize("q", [None, 2, 2**31 - 1])
def test_parity_fill_and_repair_match_their_per_entry_references(q):
    # the fill draws many entries at once: a NumPy release whose bounded
    # integers read the stream differently would change every code.  Repair
    # and verify_locality read the plan's covers; on a word that is no
    # codeword another row would give another symbol, and the plan's cover
    # must be the scan's row
    field = None if q is None else PrimeField(q)
    rng = np.random.default_rng(q)
    # the bench's codes population: the admitted triples with d* <= 8
    graphs = [(p, t) for p, t in admitted_tanner_graphs() if p.d_star <= 8]
    assert len(graphs) == 626
    for p, t in graphs:
        fld = field or default_field(p)
        for seed in range(3):
            code = build_parity_check(t, fld, seed)
            assert (code.H == per_entry_fill(t, fld.q, seed)).all(), (p, seed)
            assert verify_locality(code) == row_scan_locality(code.H, p.r), (p, seed)
            word = rng.integers(0, fld.q, size=p.n).tolist()
            covers = code.plan.covers
            for j in range(p.n):
                received = [*word[:j], None, *word[j + 1:]]
                i, symbol = row_scan_repair(code.H, fld.q, p.r, word, j)
                assert repair_symbol(code, received) == symbol, (p, seed, j)
                others = tuple(int(l) for l in np.flatnonzero(code.H[i]) if l != j)
                assert covers[j][:2] == (others, tuple(int(code.H[i, l]) for l in others)), (p, seed, j)


def test_construct_checks_envelope_before_deciding(monkeypatch):
    # (92, 65, 12) has n > 20: the oracle must not spend seconds deciding it first
    def refuse(*args, **kwargs):
        raise AssertionError("decide ran for an instance outside the distance envelope")

    monkeypatch.setattr(codec, "decide", refuse)
    with pytest.raises(EnvelopeExceeded):
        construct_optimal_lrc(derive_params(92, 65, 12))


def test_construct_refuses_a_field_that_is_not_a_prime_field_before_deciding(monkeypatch):
    # a bare int died in build_parity_check with an AttributeError, after
    # the decision and the Tanner graph were already made
    def refuse(*args, **kwargs):
        raise AssertionError("decide ran for a construct call with a bad field")

    monkeypatch.setattr(codec, "decide", refuse)
    for field in (21841, "21841"):
        with pytest.raises(BadArgs):
            construct_optimal_lrc(derive_params(16, 9, 4), field=field)


def test_construct_refuses_params_that_derive_params_did_not_make_before_deciding(monkeypatch):
    # an edited d* surfaced as InvalidTanner from graph_to_pruned, after deciding
    def refuse(*args, **kwargs):
        raise AssertionError("decide ran for a construct call with bad params")

    monkeypatch.setattr(codec, "decide", refuse)
    p = derive_params(16, 9, 4)
    for params in (p._replace(d_star=99), p._replace(n1=3), tuple(p), p._replace(n=92)):
        with pytest.raises(BadArgs):
            construct_optimal_lrc(params)


def test_construct_envelope_needs_no_family_search():
    # construct decides at the default search limit; that is sound only while
    # a closed-form rule settles every instance it admits, with or without
    # the search.  The first triple that needs the search is named here.
    walked = 0
    for p in envelope_params():
        d = decide(p)
        assert d.rule not in ("oracle", "unresolved"), (p.n, p.k, p.r, d.rule)
        assert decide(p, 0) == d, (p.n, p.k, p.r)
        walked += 1
    assert walked == 986  # n <= 20


@st.composite
def small_codes(draw):
    # q**k stays enumerable for brute_min_weight; half of the matrices get a
    # repeated row, so rank-deficient H shows up over every field
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, min(n - 1, {2: 10, 3: 6, 5: 4, 7: 3}[q])))
    m = n - k
    h = np.array(draw(st.lists(st.integers(0, q - 1), min_size=m * n, max_size=m * n)), dtype=np.int64)
    h = h.reshape(m, n)
    if m > 1 and draw(st.booleans()):
        h[1] = h[0] * draw(st.integers(0, q - 1)) % q
    return LinearCode(params=derive_params(n, k, k), field=PrimeField(q), H=h)


@settings(max_examples=300, deadline=None)
@given(small_codes(), st.sampled_from([None, 0, 1, -1]))
def test_min_distance_matches_brute_weight_under_any_claim(code, offset):
    # the claim (None, right, one above, one below) changes nothing: it is
    # a label that verify compares against
    if gf.rank_mod(code.H, code.field.q) < code.params.n - code.params.k:
        with pytest.raises(DegenerateCode):
            min_distance(code)
        return
    want = brute_min_weight(code)
    code = dataclasses.replace(code, claimed_distance=None if offset is None else want + offset)
    assert min_distance(code) == want
    # a floor reads max(distance, floor), however far the floor is from it
    for floor in range(code.params.n + 2):
        assert min_distance(code, floor) == max(want, floor), floor


@settings(max_examples=100, deadline=None)
@given(small_codes(), st.sampled_from([None, 1, 2, 5]), st.booleans())
def test_json_round_trip_keeps_every_field(code, claimed, verified):
    code = dataclasses.replace(code, claimed_distance=claimed, verified=verified)
    back = code_from_json(json.loads(json.dumps(code_to_json(code))))
    assert (back.params, back.field, back.claimed_distance, back.verified, back.attempts) == (
        code.params, code.field, code.claimed_distance, code.verified, code.attempts
    )
    assert back.H.dtype == np.int64 and (back.H == code.H).all()


def test_min_distance_scans_the_same_levels_under_any_claim(monkeypatch):
    # H's zero pattern picks the level, not the claim: one below, right, one
    # above, 9 (above 8) and none all scan level d* - 1 only
    code = construct_optimal_lrc(derive_params(16, 9, 4), seed=0)
    d = code.params.d_star
    levels = []
    scan = codec._has_dependent_columns
    monkeypatch.setattr(codec, "_has_dependent_columns", lambda h, q, w: levels.append(w) or scan(h, q, w))
    for claim in (d - 1, d, d + 1, 9, None):
        levels.clear()
        assert min_distance(dataclasses.replace(code, claimed_distance=claim)) == d
        assert levels == [d - 1], claim


def pattern_bound(code, monkeypatch):
    """The bound min_distance reads off H's zero pattern: with every scanned
    level stubbed to hold no dependent set, min_distance returns it."""
    with monkeypatch.context() as patch:
        patch.setattr(codec, "_has_dependent_columns", lambda h, q, w: False)
        return min_distance(code)


def rank_distance(h, q):
    """Smallest w with some w columns of h of rank below w, by one rank_mod per subset."""
    m, n = h.shape
    return next(
        (w for w in range(1, m + 1) if any(gf.rank_mod(h[:, list(s)], q) < w for s in combinations(range(n), w))),
        m + 1,
    )


def test_min_distance_matches_per_subset_ranks_under_any_claim(monkeypatch):
    # sparse H, sparse H with a planted zero or parallel column (the values
    # may undercut the pattern's bound) and dense H (the bound is m + 1);
    # every claim near the distance, and none
    rng = np.random.default_rng(30)
    checked = 0
    for trial in range(240):
        q = int(rng.choice([2, 3, 5, 7, 11]))
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 1, 10))
        kind = trial % 3
        if kind == 2:
            h = rng.integers(1, q, size=(m, n))
        else:
            h = rng.integers(1, q, size=(m, n)) * (rng.random((m, n)) < 0.5)
            if kind == 1:
                i, j = rng.choice(n, size=2, replace=False)
                h[:, j] = h[:, i] * int(rng.integers(0, q)) % q
        h = h.astype(np.int64)
        if gf.rank_mod(h, q) < m:
            continue
        want = rank_distance(h, q)
        code = LinearCode(params=derive_params(n, n - m, n - m), field=PrimeField(q), H=h)
        bound = pattern_bound(code, monkeypatch)
        assert bound >= want, (h.tolist(), q, bound)
        assert kind != 2 or bound == m + 1, (h.tolist(), q, bound)
        for claim in (want - 1, want, want + 1, None):
            assert min_distance(dataclasses.replace(code, claimed_distance=claim)) == want, (h.tolist(), q, claim)
        checked += 1
    assert checked > 150


def test_pattern_walk_matches_every_row_subset(monkeypatch):
    # the walk's cuts may only skip branches with no answer: on random zero
    # patterns of up to 12 rows, filled over a large field and of full rank,
    # the bound must be m + 1 minus the most rows among the 2**m subsets
    # that have fewer than rows + k columns in their union
    rng = np.random.default_rng(31)
    q = 2**31 - 1
    checked = 0
    for trial in range(160):
        m = int(rng.integers(1, 13))
        k = int(rng.integers(1, 9))
        h = (rng.random((m, m + k)) < rng.uniform(0.1, 0.9)).astype(np.int64)
        h[rng.random(m) < 0.2] = 1  # some dense rows
        h *= rng.integers(1, q, size=h.shape)
        if gf.rank_mod(h, q) < m:
            continue
        masks = [int("".join(map(str, (row != 0).astype(int)[::-1])), 2) for row in h]
        largest = 0
        for subset in range(1, 1 << m):
            rows = [masks[i] for i in range(m) if subset >> i & 1]
            union = 0
            for mask in rows:
                union |= mask
            if union.bit_count() < len(rows) + k:
                largest = max(largest, len(rows))
        code = LinearCode(params=derive_params(m + k, k, k), field=PrimeField(q), H=h)
        assert pattern_bound(code, monkeypatch) == m + 1 - largest, (h.tolist(), k)
        checked += 1
    assert checked > 120


def test_every_population_code_takes_the_fast_path(monkeypatch):
    # construct_optimal_lrc builds 839 codes, and the attempt it keeps scans
    # level d* - 1 only: the bound H's zero pattern gives is d*.  The levels
    # are read from construct's own verification, one list per min_distance
    # call, so no code is measured twice
    runs = []
    measure, scan = codec.min_distance, codec._has_dependent_columns
    monkeypatch.setattr(codec, "min_distance", lambda c, floor=0: runs.append([]) or measure(c, floor))
    monkeypatch.setattr(codec, "_has_dependent_columns", lambda h, q, w: runs[-1].append(w) or scan(h, q, w))
    graphs = admitted_tanner_graphs()
    assert len(graphs) == 839
    for p, _ in graphs:
        runs.clear()
        code = construct_optimal_lrc(p, seed=0)
        assert len(runs) == code.attempts, (p.n, p.k, p.r)
        assert runs[-1] == [p.d_star - 1], (p.n, p.k, p.r)


def test_a_failed_attempt_stops_at_its_first_dependent_set(monkeypatch):
    # (20, 10, 10) seed 0 fails its first attempt at level d* - 1 = 10; the
    # attempt stops there instead of scanning levels 1-9 for its distance,
    # so the build makes one kernel call per attempt (11 when each failed
    # attempt was measured)
    calls = []
    kernel = gf.batch_columns_independent
    monkeypatch.setattr(gf, "batch_columns_independent", lambda *args: calls.append(args[3]) or kernel(*args))
    code = construct_optimal_lrc(derive_params(20, 10, 10), seed=0)
    assert code.verified and code.attempts == 2
    assert calls == [10, 10]
    monkeypatch.undo()
    assert verify_code(code) == (True, True, 11)
    for floor in (-1, 2.0, None, True):
        with pytest.raises(BadArgs):
            min_distance(code, floor)


def test_a_repeated_scan_allocates_little(monkeypatch):
    # the scan keeps its work arrays, so a second min_distance on (20, 7, 1)
    # seed 0, whose plain level-7 scan makes 131,763 pivot-step columns,
    # allocates only small index arrays: a traced peak of 0.41 MB with NumPy
    # 2.4, against 2.5 MB when every pivot step made and freed arrays of
    # about 1 MB.  The circuit cut is held off, so the plain scan runs.
    monkeypatch.setattr(gf, "_cut_pays", lambda *args: False)
    code = construct_optimal_lrc(derive_params(20, 7, 1), seed=0)
    tracemalloc.start()
    try:
        assert min_distance(code) == 8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_tanner_distance_matches_every_admitted_code():
    # the counting distance of each witness's full Tanner graph is d*, the
    # distance of the code construct_optimal_lrc builds on it
    for p, t in admitted_tanner_graphs():
        assert tanner_min_distance(t) == p.d_star, (p.n, p.k, p.r)


def test_min_distance_below_the_true_distance_on_a_sparse_19_by_20_matrix():
    # a diagonal 19 x 19 block beside a column u of weight 8, columns
    # shuffled: the one codeword (up to scale) is (-u, 1) of weight 9.
    # The zero-pattern walk must find, among its 19 sparse rows, the 11 off
    # u's support (nonzero on 11 columns) quickly, so only level 8 is scanned
    rng = np.random.default_rng(7)
    q = 101
    h = np.zeros((19, 20), dtype=np.int64)
    h[np.arange(19), np.arange(19)] = rng.integers(1, q, size=19)
    h[rng.permutation(19)[:8], 19] = rng.integers(1, q, size=8)
    h = h[:, rng.permutation(20)]
    code = LinearCode(params=derive_params(20, 1, 1), field=PrimeField(q), H=h, claimed_distance=8)
    start = time.perf_counter()
    assert min_distance(code) == 9
    assert time.perf_counter() - start < 1.0


def test_min_distance_over_the_largest_field():
    # products of entries near 3 * 10**9 nearly fill int64; the kernel must
    # agree with a per-subset rank over q = 3037000493, the largest prime
    # PrimeField accepts
    q = 3037000493
    assert q <= FIELD_ORDER_ENVELOPE and gf.next_prime_above(q) > FIELD_ORDER_ENVELOPE
    rng = np.random.default_rng(11)
    for trial in range(12):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        h = rng.integers(q - 1000, q, size=(n - k, n)).astype(np.int64)
        if trial % 2 and n - k > 1:
            # plant a dependency: column 2 is a combination of columns 0 and 1
            a, b = (int(x) for x in rng.integers(1, q, size=2))
            h[:, 2] = (h[:, 0].astype(object) * a + h[:, 1].astype(object) * b) % q
        code = LinearCode(params=derive_params(n, k, k), field=PrimeField(q), H=h)
        assert min_distance(code) == rank_distance(h, q)


def test_row_masks_stay_exact_past_63_columns():
    # the int64 product (h != 0) @ (1 << arange(n)) wraps at n = 64: it read
    # the first two rows as -1 and -32, which the zero-pattern walk misreads
    h = np.zeros((3, 64), dtype=np.int64)
    h[0] = 1
    h[1, 5:] = 7
    h[2, 63] = 2
    code = LinearCode(params=derive_params(64, 61, 21), field=PrimeField(11), H=h)
    assert code.plan.masks == ((1 << 64) - 1, (1 << 64) - 32, 1 << 63)


def test_the_distance_scan_cuts_a_code_with_many_light_rows(monkeypatch):
    # (20, 7, 1) seed 0 has 10 light rows, its local rows; its level-7 scan
    # makes 131,763 pivot-step columns without the circuit cut and 1,675
    # with it
    code = construct_optimal_lrc(derive_params(20, 7, 1), seed=0)
    columns = []
    pivot = gf._pivot

    def counted(*args):
        out = pivot(*args)
        columns.append(out.shape[1])
        return out

    monkeypatch.setattr(gf, "_pivot", counted)
    assert min_distance(code) == 8
    assert (~(code.H != 0).all(axis=1)).sum() == 10 and 0 < sum(columns) < 5000


def tamo_barg(n, k, r, seed):
    """The Tamo-Barg code (Tamo and Barg, IEEE Trans. IT 60(8), 2014) for
    (r + 1) | n and r | k, over the least prime q > n with (r + 1) | q - 1.

    The evaluation points are n / (r + 1) cosets of the order-(r + 1)
    subgroup of GF(q)*, on which x**(r + 1) is constant, and the generator
    rows are x**i * (x**(r + 1))**j for i < r, j < k / r.  H holds one local
    row per coset, with the weights 1 / prod(beta - beta') over the coset's
    other points, then null-space vectors of the generator rows while they
    raise the rank; its columns are shuffled by ``seed``.
    """
    q = next(q for q in range(n + 1, 1 << 20) if gf.is_prime(q) and (q - 1) % (r + 1) == 0)
    cosets = {}
    for x in range(1, q):
        cosets.setdefault(pow(x, r + 1, q), []).append(x)
    groups = list(cosets.values())[: n // (r + 1)]
    points = [x for group in groups for x in group]
    g = np.array([[pow(x, i + (r + 1) * j, q) for x in points] for j in range(k // r) for i in range(r)])
    rows = []
    for t, group in enumerate(groups):
        row = [0] * n
        for a, beta in enumerate(group):
            row[t * (r + 1) + a] = pow(prod(beta - x for x in group if x != beta) % q, -1, q)
        rows.append(row)
    reduced, pivots = gf.rref_mod(g, q)
    for f in (j for j in range(n) if j not in pivots):
        row = [0] * n
        row[f] = 1
        for i, j in enumerate(pivots):
            row[j] = int(-reduced[i, f] % q)
        if gf.rank_mod(np.array([*rows, row]), q) > len(rows):
            rows.append(row)
    h = np.array(rows, dtype=np.int64)
    assert len(pivots) == k and h.shape == (n - k, n) and not (g @ h.T % q).any()
    return LinearCode(params=derive_params(n, k, r), field=PrimeField(q), H=h[:, np.random.default_rng(seed).permutation(n)])


def test_min_distance_equals_the_tamo_barg_distance(monkeypatch):
    # codes whose distance a theorem fixes, n - k - k / r + 2 = d*, checked
    # with nothing from the random fill or the zero-pattern bound: every
    # Tamo-Barg triple with n <= 20, the circuit cut on from one light row
    monkeypatch.setattr(gf, "_cut_pays", lambda *args: True)
    cuts = []
    cut = gf._cut
    monkeypatch.setattr(gf, "_cut", lambda *args: cuts.append(1) or cut(*args))
    triples = [
        (n, k, r)
        for n in range(2, 21)
        for r in range(1, n)
        for k in range(r, n, r)
        if n % (r + 1) == 0 and n - k >= k // r
    ]
    assert len(triples) == 129
    for seed, (n, k, r) in enumerate(triples):
        code = tamo_barg(n, k, r, seed)
        d = code.params.d_star
        assert n - k - k // r + 2 == d
        assert verify_code(code) == (True, True, d), (n, k, r)
        # the scan itself, whatever bound the zero pattern gives: some d
        # columns are dependent and no d - 1 are
        h, q = code.H, code.field.q
        assert codec._has_dependent_columns(h, q, d), (n, k, r)
        assert not codec._has_dependent_columns(h, q, d - 1), (n, k, r)
    assert len(cuts) > 500


def grs(n, k, rng):
    """A generalized Reed-Solomon code of length n and dimension k over the
    least prime q >= n: H[i][j] = v_j * alpha_j**i mod q for i < n - k, with
    the points alpha_j = 0, ..., n - 1, random nonzero weights v_j and
    shuffled columns.  Any n - k columns of H are a Vandermonde matrix on
    distinct points times a nonzero diagonal, so the distance is n - k + 1."""
    q = next(q for q in range(n, 1 << 20) if gf.is_prime(q))
    v = rng.integers(1, q, size=n)
    h = np.array([[int(v[j]) * pow(j, i, q) % q for j in range(n)] for i in range(n - k)], dtype=np.int64)
    return LinearCode(params=derive_params(n, k, k), field=PrimeField(q), H=h[:, rng.permutation(n)])


def test_min_distance_equals_the_grs_distance(monkeypatch):
    # MDS codes, whose distance n - k + 1 a theorem fixes, for every
    # 1 <= k < n <= 20 over a field of about n elements: the plain scan on
    # all 190, then the circuit cut forced on the 153 with n <= 18 (their
    # rows but the first are light, zero on the point 0); n = 19 and 20
    # would take three times as long as the rest together
    rng = np.random.default_rng(0)
    codes = [grs(n, k, rng) for n in range(2, 21) for k in range(1, n)]
    assert len(codes) == 190
    for code in codes:
        assert min_distance(code) == code.params.n - code.params.k + 1, code.params
    monkeypatch.setattr(gf, "_cut_pays", lambda *args: True)
    cuts = []
    cut = gf._cut
    monkeypatch.setattr(gf, "_cut", lambda *args: cuts.append(1) or cut(*args))
    forced = [code for code in codes if code.params.n <= 18]
    assert len(forced) == 153
    for code in forced:
        assert min_distance(code) == code.params.n - code.params.k + 1, code.params
    assert len(cuts) > 1000
