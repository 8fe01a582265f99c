import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from math import comb

import pytest

import lrcdist
from lrcdist import decider, extremal
from lrcdist.decider import Decision, decide, forest_component_min
from lrcdist.errors import InvalidParams, SelfCheckFailed
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
    extremal._free_multigraph.cache_clear()
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
    # n1 = 9, n2 = 10, k1 = 5, k2 = 4: no arithmetic rule settles it, and
    # the k2 = k1 - 1 girth rule needs the oracle envelope to reach n1
    p = derive_params(98, 51, 11)
    assert (p.n1, p.n2, p.k1, p.k2) == (9, 10, 5, 4)
    d_small = decide(p, oracle_limit=8)
    assert d_small.status == "unresolved"
    assert d_small.value == (p.d_star - 1, p.d_star)
    assert d_small.rule == "unresolved"
    assert d_small.notes
    assert "resolvable via the girth oracle at a higher limit" in d_small.notes
    d_full = decide(p, oracle_limit=10)
    assert d_full.status == "exact"
    assert d_full.rule == "girth_k2_eq_k1m1"


def test_no_higher_limit_note_beyond_the_search_envelope():
    # n1 = 11 is a girth-rule key (k2 = k1 - 1), but no limit reaches it:
    # limits are clamped to extremal.SEARCH_ENVELOPE = 10
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
    p = derive_params(60, 5, 1)
    assert (p.n1, p.n2, p.k1) == (30, 0, 5)
    d = decide(p)
    assert (d.rule, d.status, d.value) == ("divides", "exact", p.d_star)
    assert d.notes == ("witness self-check skipped: C(30, 5) > 20000",)
    # a checked witness carries no such note
    assert decide(derive_params(16, 9, 4)).notes == ()


def test_self_check_skip_matches_the_full_binomial():
    # the skip test bounds C(n, k) instead of forming it, and must still
    # decide exactly as comparing the full binomial with the limit would
    for n in range(120):
        for k in range(n + 1):
            assert decider._exceeds_self_check_limit(n, k) == (comb(n, k) > decider.SELF_CHECK_LIMIT)
