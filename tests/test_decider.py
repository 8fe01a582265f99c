import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import lrcdist
from lrcdist import decider, extremal
from lrcdist.decider import DEFAULT_ORACLE_LIMIT, Decision, decide, forest_component_min
from lrcdist.errors import BadArgs, InvalidParams, SelfCheckFailed
from lrcdist.constructions import saturated_pair_graph, turan_graph
from lrcdist.extremal import free_multigraph, max_size_girth
from lrcdist.multigraph import ForbiddenFamily, Multigraph, is_family_free, multigraph_to_json
from lrcdist.params import derive_params


def valid_envelope(n_max=24, r_max=6, n1_max=8):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for r in range(1, min(k, r_max) + 1):
                try:
                    p = derive_params(n, k, r)
                except InvalidParams:
                    continue
                if p.n1 <= n1_max:
                    yield p


def test_examples():
    d = decide(derive_params(16, 9, 4))
    assert (d.value, d.status, d.rule) == (6, "exact", "real_n1m1")
    d = decide(derive_params(12, 7, 3))
    assert (d.value, d.status, d.rule) == (4, "exact", "divides")
    d = decide(derive_params(10, 4, 2))
    assert (d.value, d.status, d.rule) == (5, "exact", "k2_zero")
    assert d.witness is None
    d = decide(derive_params(6, 3, 3))
    assert (d.value, d.status, d.rule) == (4, "exact", "k1_eq_1")
    d = decide(derive_params(13, 7, 3))
    assert (d.value, d.status) == (5, "exact")
    # the Mantel arithmetic for that instance: n2 = 3 <= floor(16 / 4)
    p = derive_params(13, 7, 3)
    assert p.n2 <= p.n1 * p.n1 // 4 and (p.k1, p.k2) == (3, 2)
    for nkr, value, rule in (
        ((36, 19, 6), 15, "turan_sufficient"),
        ((25, 11, 5), 13, "cycle_n2_eq_n1"),
        ((41, 25, 7), 13, "girth_k2_eq_k1m1"),  # the d* - 1 branch
    ):
        p = derive_params(*nkr)
        d = decide(p)
        assert (d.value, d.status, d.rule) == (value, "exact", rule)
        if value == p.d_star:
            assert (d.witness.order, d.witness.size) == (p.n1, p.n2)
            assert is_family_free(d.witness, ForbiddenFamily(p.k1, p.k2))
        else:
            assert d.witness is None


def test_witness_shape_and_freeness():
    for p in valid_envelope(n_max=18, r_max=5):
        d = decide(p)
        assert d.status == "exact"
        assert d.value in (p.d_star - 1, p.d_star)
        if d.value == p.d_star:
            assert d.witness is not None
            assert d.witness.order == p.n1
            assert d.witness.size == p.n2
            assert is_family_free(d.witness, ForbiddenFamily(p.k1, p.k2))
        else:
            assert d.witness is None


def test_sweep_witnesses_are_pinned():
    # every witness of the n <= 60, r <= 8 sweep, in sweep order
    digest = hashlib.md5()
    rows = 0
    for p in valid_envelope(n_max=60, r_max=8, n1_max=60):
        w = decide(p).witness
        digest.update((json.dumps(multigraph_to_json(w) if w else None) + "\n").encode())
        rows += 1
    assert rows == 9509
    assert digest.hexdigest() == "1d90a22312e0ce014fc2b8afa8fded96"


def test_92_65_12_is_decided_by_a_circulant_witness_in_milliseconds():
    # (8, 12) with every 6 vertices holding at most 7 edges: the seeds
    # miss, and the DFS alone took about 7 s; the Wagner graph C8(1, 4)
    # is a free circulant
    start = time.process_time()
    d = decide(derive_params(92, 65, 12))
    elapsed = time.process_time() - start
    assert (d.value, d.status, d.rule, d.notes) == (23, "exact", "oracle", ())
    assert (d.witness.order, d.witness.size) == (8, 12)
    assert is_family_free(d.witness, ForbiddenFamily(6, 7))
    assert elapsed < 2.0


def test_truncated_witnesses_keep_the_last_edges():
    # each rule that cuts a larger graph down to n2 edges keeps its last n2
    # edge units in lexicographic pair order
    for nkr, rule, full in (
        ((14, 5, 3), "k1_eq_2", saturated_pair_graph(4, 1)),
        ((17, 7, 3), "mantel", turan_graph(5, 2)),
        ((36, 19, 6), "turan_sufficient", turan_graph(6, 3)),
        ((71, 33, 9), "girth_k2_eq_k1m1", max_size_girth(8, 4).witness),
    ):
        p = derive_params(*nkr)
        d = decide(p)
        edges = full.edges()
        assert d.rule == rule and p.n2 < len(edges), nkr
        assert d.witness == Multigraph.from_edges(p.n1, edges[len(edges) - p.n2 :]), nkr


def test_closed_form_witnesses_hold_only_their_edges():
    # n1 = 2000 with n2 <= r: one instance per closed-form rule that builds
    # a witness; an n1 x n1 matrix alone would take tens of MB
    for nkr, rule, value in (
        ((4000, 1999, 1), "divides", 4),
        ((11995, 5, 5), "k1_eq_1", 11991),
        ((5998, 3, 2), "k1_eq_2", 5995),
        ((7997, 7, 3), "mantel", 7989),
        ((13994, 19, 6), "turan_sufficient", 13973),
        ((9996, 9, 4), "forest_n2_lt_n1", 9986),
    ):
        p = derive_params(*nkr)
        assert p.n1 == 2000
        tracemalloc.start()
        try:
            d = decide(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (d.rule, d.value) == (rule, value), nkr
        assert peak < 1 << 20, (nkr, peak)


def test_agrees_with_forced_oracle_small():
    for p in valid_envelope(n_max=16, r_max=5, n1_max=6):
        a = decide(p, 8)
        b = decide(p, 8, use_rules=False)
        assert (a.value, a.status) == (b.value, b.status), p


def test_oracle_agrees_with_k1_eq_1_past_a_million_edges():
    # k1 = 1 forbids nothing, so the search must find the d* witness too
    p = derive_params(1000003, 1000001, 1000001)
    a = decide(p)
    b = decide(p, use_rules=False)
    assert p.d_star == 3 and (a.rule, a.value) == ("k1_eq_1", 3)
    assert (b.rule, b.value) == ("oracle", 3)
    assert b.witness.size == p.n2


def test_monotone_in_n2():
    # if d* is achievable at n2 = x, it is achievable at every smaller n2
    # with the same n1, k1, k2 (edge removal preserves freeness)
    cells = {}
    for p in valid_envelope(n_max=20, r_max=6):
        d = decide(p)
        cells.setdefault((p.n1, p.k1, p.k2), []).append((p.n2, d.value == p.d_star))
    assert len(cells) > 50
    for rows in cells.values():
        achievable = {n2 for n2, yes in rows if yes}
        not_achievable = {n2 for n2, yes in rows if not yes}
        if achievable and not_achievable:
            assert max(achievable) < min(not_achievable)


def test_unresolved_above_oracle_limit():
    # n1 = 9, n2 = 10, k1 = 5, k2 = 5: no closed-form rule settles it, and
    # the family search runs only up to the oracle limit
    p = derive_params(89, 45, 10)
    assert (p.n1, p.n2, p.k1, p.k2) == (9, 10, 5, 5)
    d_small = decide(p, oracle_limit=8)
    assert d_small.status == "unresolved"
    assert d_small.value == (p.d_star - 1, p.d_star)
    assert d_small.rule == "unresolved"
    assert d_small.notes == ("n1=9 exceeds oracle limit 8",)
    d_full = decide(p, oracle_limit=9)
    assert d_full.status == "exact"
    assert d_full.rule == "oracle"
    # (9, 10, 5, 4) is a girth key: the girth oracle is exact at every
    # order inside the envelope, so no limit keeps the girth rule out
    p = derive_params(98, 51, 11)
    assert (p.n1, p.n2, p.k1, p.k2) == (9, 10, 5, 4)
    for limit in (0, DEFAULT_ORACLE_LIMIT, 10):
        d = decide(p, oracle_limit=limit)
        assert (d.status, d.rule) == ("exact", "girth_k2_eq_k1m1"), limit


# the rows of the n <= 100, r <= 12 sweep that the girth rule settles at
# n1 = 9, by key (n1, n2, k1, k2)
GIRTH_ROWS_AT_N1_9 = {
    (9, 10, 4, 3): [(89, 37, 10), (98, 41, 11)],
    (9, 10, 5, 4): [(89, 46, 10), (98, 51, 11)],
    (9, 10, 6, 5): [(89, 55, 10), (98, 61, 11)],
    (9, 10, 7, 6): [(89, 64, 10), (98, 71, 11)],
    (9, 11, 4, 3): [(97, 41, 11)],
    (9, 11, 5, 4): [(97, 51, 11)],
    (9, 11, 6, 5): [(97, 61, 11)],
}


def test_girth_rule_settles_the_n1_9_keys_at_the_default_limit():
    for key, rows in GIRTH_ROWS_AT_N1_9.items():
        for n, k, r in rows:
            p = derive_params(n, k, r)
            assert (p.n1, p.n2, p.k1, p.k2) == key
            d = decide(p)
            assert (d.status, d.rule) == ("exact", "girth_k2_eq_k1m1"), (n, k, r)
            if d.value == p.d_star:
                assert is_family_free(d.witness, ForbiddenFamily(p.k1, p.k2)), (n, k, r)
            else:
                assert d.value == p.d_star - 1 and d.witness is None
                assert p.n2 > extremal._moore_cap(9, p.k1), (n, k, r)


def test_no_higher_limit_note_beyond_the_search_envelope():
    # n1 = 11 is a girth-regime key (k2 = k1 - 1), but both the girth rule
    # and the clamped limit stop at extremal.SEARCH_ENVELOPE = 10
    p = derive_params(131, 45, 12)
    assert (p.n1, p.k1, p.k2) == (11, 4, 3)
    d = decide(p, oracle_limit=12)
    assert d.status == "unresolved"
    assert d.notes == ("n1=11 exceeds oracle limit 10",)


def test_rule_consistency_each_exact_rule_matches_oracle():
    # every instance in the envelope, decided by whatever rule fires first,
    # must match the exhaustive oracle; this is the pairwise-consistency
    # sweep in disguise (the oracle is the common referee)
    seen_rules = set()
    for p in valid_envelope(n_max=20, r_max=6, n1_max=7):
        d = decide(p, 8)
        seen_rules.add(d.rule)
        witness = free_multigraph(p.n1, p.n2, ForbiddenFamily(p.k1, p.k2))
        oracle_says = p.d_star if witness is not None else p.d_star - 1
        assert d.value == oracle_says, (p, d.rule)
    assert {"k1_eq_1", "divides", "n2_le_k2", "k2_zero", "k1_eq_2",
            "t_bound", "forest_k2_lt_k1m1", "real_n1m1"} <= seen_rules


# one instance per RULES entry, in table order
RULE_INSTANCES = (
    ("k1_eq_1", (6, 3, 3)),
    ("divides", (12, 7, 3)),
    ("n2_le_k2", (5, 3, 2)),
    ("k2_zero", (10, 4, 2)),
    ("k1_eq_2", (14, 5, 3)),
    ("many_edges", (13, 7, 2)),
    ("t_bound", (13, 8, 3)),
    ("forest_k2_lt_k1m1", (10, 5, 2)),
    ("real_n1m1", (16, 9, 4)),
    ("mantel", (17, 7, 3)),
    ("turan_sufficient", (36, 19, 6)),
    ("forest_n2_lt_n1", (21, 9, 4)),
    ("cycle_n2_eq_n1", (25, 11, 5)),
    ("girth_k2_eq_k1m1", (41, 25, 7)),
    ("oracle", (34, 16, 7)),
)


def test_rule_table_order_and_one_instance_per_rule():
    assert [name for name, _, _ in decider.RULES] == [name for name, _ in RULE_INSTANCES]
    for name, nkr in RULE_INSTANCES:
        assert decide(derive_params(*nkr)).rule == name, nkr
    # without the rules only the last entry, the oracle, is consulted
    assert decide(derive_params(16, 9, 4), use_rules=False).rule == "oracle"


def test_turan_size_formula_matches_the_graph():
    for order in range(1, 61):
        for parts in range(1, order + 1):
            assert decider._turan_size(order, parts) == turan_graph(order, parts).size, (order, parts)


def test_forest_component_min_requires_strict_gap():
    with pytest.raises(ValueError):
        forest_component_min(5, 3, 2)


def test_decision_is_dataclass_value():
    d = decide(derive_params(16, 9, 4))
    assert isinstance(d, Decision)
    assert d.params.n == 16


def test_records_are_read_only():
    p = derive_params(16, 9, 4)
    d = decide(p)
    for record, field in ((p, "d_star"), (d, "value"), (d, "witness")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert (p.d_star, d.value) == (6, 6) and d.witness is not None


def piled_up(n1, n2):
    # right order and size, but every edge on one pair: not (3, 3)-free for n2 = 4
    return Multigraph(n1, {(0, 1): n2})


PILED_UP_UNDER_O = """
import sys
from lrcdist import decider, extremal
from lrcdist.errors import SelfCheckFailed
from lrcdist.multigraph import Multigraph
from lrcdist.params import derive_params

decider.cons.almost_regular = lambda n1, n2: Multigraph(n1, {(0, 1): n2})
try:
    decider.decide(derive_params(16, 9, 4))
except SelfCheckFailed:
    print("optimize", sys.flags.optimize, "raised")
"""


def test_self_check_rejects_non_free_witness(monkeypatch):
    # (16, 9, 4) is decided by real_n1m1 with an almost_regular witness
    monkeypatch.setattr(decider.cons, "almost_regular", piled_up)
    with pytest.raises(SelfCheckFailed):
        decide(derive_params(16, 9, 4))
    # the check must not be an assert that python -O strips
    src = os.path.dirname(os.path.dirname(lrcdist.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", PILED_UP_UNDER_O],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["optimize", "1", "raised"]


def test_skipped_self_check_is_noted():
    # C(30, 5) > 20000, but the empty witness is settled by its size
    p = derive_params(60, 5, 1)
    assert (p.n1, p.n2, p.k1) == (30, 0, 5)
    d = decide(p)
    assert (d.rule, d.status, d.value, d.notes) == ("divides", "exact", p.d_star, ())
    assert decide(derive_params(16, 9, 4)).notes == ()
    # the Turan witness, K(2, 5) with 10 > k2 edges, is no forest, so the
    # kernel would walk C(21, 5) > 20000 subsets
    p = derive_params(221, 41, 10)
    assert (p.n1, p.n2, p.k1, p.k2) == (21, 10, 5, 9)
    d = decide(p)
    assert (d.rule, d.status, d.value) == ("turan_sufficient", "exact", p.d_star)
    assert d.notes == ("witness self-check skipped: C(21, 5) > 20000",)


def test_triples_with_one_key_share_the_answer_and_keep_their_own_d_star():
    # per key: two triples with different d*, the deciding rule and how far
    # below d* the value is (None: the interval [d* - 1, d*])
    for pair, rule, below in (
        (((13, 7, 3), (17, 10, 4)), "real_n1m1", 0),
        (((13, 8, 3), (17, 11, 4)), "t_bound", 1),
        (((89, 45, 10), (98, 50, 11)), "unresolved", None),
    ):
        p, q = (derive_params(*nkr) for nkr in pair)
        assert (p.n1, p.n2, p.k1, p.k2) == (q.n1, q.n2, q.k1, q.k2) and p.d_star != q.d_star
        a, b = decide(p), decide(q)
        assert a.rule == b.rule == rule and a.status == b.status, pair
        assert a.witness is b.witness and (a.witness is None) == (below != 0), pair
        assert a.notes == b.notes and (a.params, b.params) == (p, q), pair
        for x, d in ((p, a), (q, b)):
            assert d.value == ((x.d_star - 1, x.d_star) if below is None else x.d_star - below), pair
    assert decider._resolve.cache_info().misses == 3


def test_self_check_failure_is_raised_on_every_call(monkeypatch):
    monkeypatch.setattr(decider.cons, "almost_regular", piled_up)
    for _ in range(2):
        with pytest.raises(SelfCheckFailed):
            decide(derive_params(16, 9, 4))
    assert decider._resolve.cache_info().currsize == 0


def test_memo_key_holds_the_clamped_limit_and_the_rule_switch():
    p = derive_params(89, 45, 10)
    assert decide(p, 8).rule == "unresolved"
    assert decide(p, 9).rule == "oracle"
    assert decide(p, 8).rule == "unresolved"
    # limits above extremal.SEARCH_ENVELOPE = 10 are clamped to one entry
    before = decider._resolve.cache_info()
    assert decide(p, 10).rule == decide(p, 12).rule == "oracle"
    after = decider._resolve.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    q = derive_params(16, 9, 4)
    assert decide(q).rule == "real_n1m1"
    assert decide(q, use_rules=False).rule == "oracle"
    assert decide(q).rule == "real_n1m1"


def test_sweep_decides_each_key_once():
    rows = 0
    for p in valid_envelope(n_max=60, r_max=8, n1_max=60):
        decide(p)
        rows += 1
    info = decider._resolve.cache_info()
    assert (rows, info.misses, info.hits) == (9509, 4118, 5391)


@pytest.mark.parametrize("limit", [8.5, 9.0, True, False, None, "8", -1])
def test_oracle_limit_must_be_a_non_negative_integer(limit):
    with pytest.raises(BadArgs, match="oracle limit"):
        decide(derive_params(89, 45, 10), limit)


@pytest.mark.parametrize("use_rules", [[], 1, 0, None, "no"])
def test_use_rules_must_be_a_bool(use_rules):
    # [] is unhashable in the memo key, and 1 or "no" would share True's entry
    with pytest.raises(BadArgs, match="use_rules"):
        decide(derive_params(16, 9, 4), use_rules=use_rules)
    assert decider._resolve.cache_info().currsize == 0


def test_rules_see_only_the_key(monkeypatch):
    # a rule reading n, k, r or d* would memoize one triple's answer for
    # every triple with its key, so it must fail instead
    monkeypatch.setattr(decider, "RULES", (("d_star", lambda p: p.d_star > 2, lambda p: None),))
    with pytest.raises(AttributeError):
        decide(derive_params(16, 9, 4))
