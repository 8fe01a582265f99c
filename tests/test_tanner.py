import dataclasses
import random
from itertools import combinations, islice

import numpy as np
import pytest

from lrcdist.codec import LinearCode, PrimeField, min_distance
from lrcdist.decider import decide
from lrcdist.errors import (
    EnvelopeExceeded,
    InvalidParams,
    InvalidTanner,
    NothingToReduce,
    ShapeMismatch,
)
from lrcdist.multigraph import Multigraph
from lrcdist.params import CodeParams, derive_params
from lrcdist.tanner import (
    FullTannerGraph,
    PrunedGraph,
    f2p,
    failing_checks,
    graph_to_pruned,
    p2f,
    reduce_check_nodes,
    refine,
    tanner_min_distance,
)


def neighborhood_size(t, checks):
    """|N(S)| for a set of check indices of a full Tanner graph (locals first, then globals)."""
    total = t.params.n - t.params.k
    local_count = len(t.local_checks)
    seen = set()
    for c in checks:
        if not 0 <= c < total:
            raise ValueError(f"check index {c} outside 0..{total - 1}")
        if c >= local_count:
            return t.params.n
        seen |= t.local_checks[c]
    return len(seen)


def witness_tanner(n, k, r):
    p = derive_params(n, k, r)
    d = decide(p)
    assert d.witness is not None
    return p, d, p2f(graph_to_pruned(d.witness, p))


def random_full_tanner(rng, n, k, r, locals_count):
    """Random full Tanner graph: deal every variable at least once, then fill."""
    p = derive_params(n, k, r)
    assert p.n1 <= locals_count <= n - k
    while True:
        slots = locals_count * (r + 1)
        fill = list(range(n))
        rng.shuffle(fill)
        while len(fill) < slots:
            fill.append(rng.randrange(n))
        rng.shuffle(fill)
        checks = [fill[i * (r + 1):(i + 1) * (r + 1)] for i in range(locals_count)]
        if all(len(set(c)) == r + 1 for c in checks):
            return FullTannerGraph(p, tuple(frozenset(c) for c in checks))


def random_pruned(rng):
    n, k, r = rng.choice([(8, 4, 3), (10, 5, 4), (12, 7, 3), (9, 4, 2)])
    locals_count = rng.randint(derive_params(n, k, r).n1, n - k)
    return f2p(random_full_tanner(rng, n, k, r, locals_count))


def test_graph_to_pruned_examples():
    p = derive_params(6, 3, 3)
    g = Multigraph(2, {(0, 1): 2})
    pr = graph_to_pruned(g, p)
    assert (pr.h, pr.m) == (2, 2)
    assert all(c == frozenset({0, 1}) for c in pr.checks)

    p = derive_params(12, 7, 3)
    pr = graph_to_pruned(Multigraph.empty(3), p)
    assert (pr.h, pr.m) == (3, 0)

    p = derive_params(16, 9, 4)
    c4 = Multigraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    pr = graph_to_pruned(c4, p)
    assert (pr.h, pr.m) == (4, 4)
    assert sum(len(c) for c in pr.checks) == 8


def test_graph_to_pruned_shape_mismatch():
    p = derive_params(16, 9, 4)
    with pytest.raises(ShapeMismatch):
        graph_to_pruned(Multigraph.empty(4), p)
    with pytest.raises(ShapeMismatch):
        graph_to_pruned(Multigraph.empty(5), p)


def test_f2p_drops_globals_and_singletons():
    # disjoint locals covering all variables exactly once: everything pruned away
    t = FullTannerGraph(
        derive_params(12, 8, 3),
        (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}), frozenset({8, 9, 10, 11})),
    )
    pr = f2p(t)
    assert (pr.m, pr.h) == (0, 3)
    assert all(len(c) == 0 for c in pr.checks)


def test_f2p_on_witness_round_trip():
    p, d, t = witness_tanner(6, 3, 3)
    pr = f2p(t)
    assert (pr.h, pr.m) == (2, 2)
    assert sum(len(c) for c in pr.checks) == 4
    # check-to-variable incidence among surviving variables is preserved
    again = f2p(p2f(pr))
    assert again.checks == pr.checks


def test_p2f_structure():
    p, d, t = witness_tanner(12, 7, 3)  # n2 = 0: disjoint local groups
    assert t.params == p and len(t.local_checks) == p.n1
    assert all(len(c) == p.r + 1 for c in t.local_checks)
    pr = f2p(t)
    full = p2f(pr)
    assert len(full.local_checks) == len(t.local_checks)
    assert tanner_min_distance(full) == tanner_min_distance(t)


def test_neighborhood_size_examples():
    t = random_full_tanner(random.Random(0), 12, 7, 3, 3)
    # any subset containing a global check sees everything
    assert neighborhood_size(t, [0, 3]) == 12
    disjoint = FullTannerGraph(
        derive_params(12, 8, 3),
        (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}), frozenset({8, 9, 10, 11})),
    )
    assert neighborhood_size(disjoint, [0, 1]) == 8
    sharing = FullTannerGraph(
        derive_params(8, 3, 3),
        (frozenset({0, 1, 2, 3}), frozenset({2, 3, 4, 5}), frozenset({4, 5, 6, 7})),
    )
    assert neighborhood_size(sharing, [0, 1]) == 6
    with pytest.raises(ValueError):
        neighborhood_size(sharing, [9])


def test_neighborhood_matches_pruned_formula():
    # |N_T(S)| = |N_P(S)| + ((r+1)|S| - |E_P(S)|) for all-local S
    rng = random.Random(5)
    for _ in range(20):
        t = random_full_tanner(rng, 10, 5, 4, rng.randint(2, 4))
        pr = f2p(t)
        local_ids = range(len(t.local_checks))
        for size in range(1, len(t.local_checks) + 1):
            for s in combinations(local_ids, size):
                nt = neighborhood_size(t, s)
                np_ = len(set().union(*(pr.checks[i] for i in s)))
                ep = sum(len(pr.checks[i]) for i in s)
                assert nt == np_ + ((t.params.r + 1) * len(s) - ep)


def test_neighborhood_identity_for_graph_built_tanner():
    # for a full Tanner graph built from a multigraph witness g, every
    # all-local check subset S sees exactly (r+1)|S| - g.induced_size(S)
    # variables
    rng = random.Random(31)
    for (n, k, r) in [(6, 3, 3), (16, 9, 4), (13, 7, 3), (10, 5, 4)]:
        p = derive_params(n, k, r)
        for _ in range(5):
            pairs = [(u, v) for u in range(p.n1) for v in range(u + 1, p.n1)]
            mult: dict = {}
            for _ in range(p.n2):
                u, v = rng.choice(pairs) if pairs else (0, 0)
                mult[(u, v)] = mult.get((u, v), 0) + 1
            g = Multigraph(p.n1, mult)
            t = p2f(graph_to_pruned(g, p))
            for size in range(1, p.n1 + 1):
                for s in combinations(range(p.n1), size):
                    expected = (r + 1) * size - g.induced_size(s)
                    assert neighborhood_size(t, s) == expected


def test_tanner_min_distance_witness_codes():
    # the decided value always matches the witness graph's Tanner distance,
    # n - k + 1 included (k1 = 1)
    for (n, k, r) in [(6, 3, 3), (16, 9, 4), (12, 7, 3), (13, 7, 3)]:
        p, d, t = witness_tanner(n, k, r)
        assert tanner_min_distance(t) == p.d_star


def test_tanner_min_distance_beyond_twenty_local_checks():
    # (42, 20, 1) decides by `divides`: 21 disjoint local checks and one global
    p, d, t = witness_tanner(42, 20, 1)
    assert d.rule == "divides"
    assert len(t.local_checks) == 21
    assert tanner_min_distance(t) == p.d_star == 4


def test_failing_checks_matches_every_subset():
    # the walk's cuts may only skip branches with no larger answer: on random
    # masks its set must fail, be nonempty, and be as large as the largest
    # failing set among all 2**L subsets
    rng = random.Random(37)
    for _ in range(300):
        count = rng.randint(0, 11)
        bits = rng.randint(1, 14)
        density = rng.uniform(0.05, 0.9)
        masks = [sum(1 << b for b in range(bits) if rng.random() < density) for _ in range(count)]
        k = rng.randint(1, 8)
        largest = None
        for subset in range(1, 1 << count):
            rows = [i for i in range(count) if subset >> i & 1]
            union = 0
            for i in rows:
                union |= masks[i]
            if union.bit_count() < len(rows) + k:
                largest = max(largest or 0, len(rows))
        found = failing_checks(masks, k)
        if largest is None:
            assert found is None, (masks, k)
            continue
        assert found is not None and len(found) == largest, (masks, k, found)
        assert list(found) == sorted(set(found)) and all(0 <= i < count for i in found)
        union = 0
        for i in found:
            union |= masks[i]
        assert found and union.bit_count() < len(found) + k


def test_tanner_min_distance_at_the_envelope_edge():
    # (48, 24, 1): n - k = 24 = CHECK_ENVELOPE, 24 disjoint local checks;
    # any 23 of them fail, so the distance is 2
    p, d, t = witness_tanner(48, 24, 1)
    assert p.n - p.k == 24 and len(t.local_checks) == 24
    assert tanner_min_distance(t) == p.d_star == 2
    past = FullTannerGraph(derive_params(50, 25, 1), tuple(frozenset({2 * i, 2 * i + 1}) for i in range(25)))
    with pytest.raises(EnvelopeExceeded):
        tanner_min_distance(past)


def test_tanner_min_distance_vacuous_cap():
    # r = n - 1: the single local check sees every variable, all conditions
    # hold, and the distance reports n - k + 1, the distance of the one-row
    # weight-4 code with that zero pattern
    t = FullTannerGraph(derive_params(4, 3, 3), (frozenset({0, 1, 2, 3}),))
    assert tanner_min_distance(t) == 2
    code = LinearCode(params=derive_params(4, 3, 3), field=PrimeField(5), H=np.array([[1, 2, 3, 4]]))
    assert min_distance(code) == 2
    # k1 = 1 instances have d* = n - k + 1; the witness graph satisfies every
    # condition and reaches it
    p, d, t = witness_tanner(6, 3, 3)
    assert p.d_star == 4
    assert tanner_min_distance(t) == 4


def test_non_witness_graph_scores_below_d_star():
    # a triangle (3-density 3 > k2 = 2) must not reach d* for (13, 7, 3)
    p = derive_params(13, 7, 3)
    bad = Multigraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    t = p2f(graph_to_pruned(bad, p))
    assert tanner_min_distance(t) < p.d_star


def attach(pr, fresh):
    """Full Tanner graph whose checks, in order, fill their free slots from
    ``fresh``; its constructor checks every full-graph invariant."""
    fresh = iter(fresh)
    checks = tuple(frozenset([*c, *islice(fresh, pr.params.r + 1 - len(c))]) for c in pr.checks)
    return FullTannerGraph(pr.params, checks)


def assert_attachments_agree(pr, rng):
    """The fresh variables m..n-1 handed to the check slots in five orders,
    p2f's own, reversed, rotated, shuffled and strided, each give a full
    Tanner graph that prunes back to ``pr``, and all five one distance."""
    fresh = list(range(pr.m, pr.params.n))
    orders = [fresh, fresh[::-1], fresh[1:] + fresh[:1], rng.sample(fresh, len(fresh)), fresh[::2] + fresh[1::2]]
    fulls = [attach(pr, order) for order in orders]
    assert fulls[0] == p2f(pr)
    assert all(f2p(full) == pr for full in fulls)
    assert len({tanner_min_distance(full) for full in fulls}) == 1


def test_p2f_strategy_invariance():
    rng = random.Random(17)
    for _ in range(12):
        assert_attachments_agree(random_pruned(rng), rng)


def test_reduce_check_nodes():
    rng = random.Random(23)
    reduced_any = False
    for _ in range(30):
        pr = random_pruned(rng)
        if pr.h == pr.params.n1:
            with pytest.raises(NothingToReduce):
                reduce_check_nodes(pr)
            continue
        reduced_any = True
        before = tanner_min_distance(p2f(pr))
        out = reduce_check_nodes(pr)
        assert out.h == pr.h - 1
        assert tanner_min_distance(p2f(out)) >= before
    assert reduced_any


def test_refine_normalizes_and_preserves_distance():
    rng = random.Random(29)
    for _ in range(30):
        pr = random_pruned(rng)
        before = tanner_min_distance(p2f(pr))
        out = refine(pr)
        assert out.h == pr.params.n1
        assert out.m == pr.params.n2
        degrees = [sum(1 for c in out.checks if v in c) for v in range(out.m)]
        assert all(d == 2 for d in degrees)
        assert tanner_min_distance(p2f(out)) >= before
        assert refine(out) == out


def brute_tanner_distance(t):
    """Referee: evaluate the distance condition over every check subset."""
    n, k = t.params.n, t.params.k
    local_count = len(t.local_checks)

    def nbrs(s):
        if any(c >= local_count for c in s):
            return n
        out = set()
        for c in s:
            out |= t.local_checks[c]
        return len(out)

    def holds(d):
        for eta in range(max(1, n - k - d + 2), n - k + 1):
            for s in combinations(range(n - k), eta):
                if nbrs(s) < eta + k:
                    return False
        return True

    return max(d for d in range(1, n - k + 2) if holds(d))


def test_tanner_min_distance_matches_brute_definition():
    rng = random.Random(47)
    for _ in range(40):
        n, k, r = rng.choice([(8, 4, 3), (10, 5, 4), (12, 7, 3), (9, 4, 2)])
        t = random_full_tanner(rng, n, k, r, rng.randint(derive_params(n, k, r).n1, n - k))
        assert tanner_min_distance(t) == brute_tanner_distance(t)


def test_constructors_reject_non_integers():
    checks = (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    full = dict(params=derive_params(6, 3, 2), local_checks=checks)
    assert tanner_min_distance(FullTannerGraph(**full)) == 3
    with pytest.raises(InvalidTanner):
        FullTannerGraph(**{**full, "local_checks": (frozenset({0, 1, 2.5}), frozenset({3, 4, 5}))})
    pruned = dict(params=derive_params(5, 2, 2), m=1, checks=(frozenset({0}), frozenset({0})))
    assert PrunedGraph(**pruned).h == 2
    for change in ({"m": True}, {"checks": (frozenset({0.0}), frozenset({0.0}))}):
        with pytest.raises(InvalidTanner):
            PrunedGraph(**{**pruned, **change})
    # n, k and r are derive_params's to check: a params it did not make is refused
    for n, k, r in ((6.0, 3, 2), (6, 3.0, 2), (6, 3, True)):
        with pytest.raises(InvalidParams):
            derive_params(n, k, r)
        with pytest.raises(InvalidTanner):
            FullTannerGraph(**{**full, "params": CodeParams(n, k, r, *full["params"][3:])})
        with pytest.raises(InvalidTanner):
            PrunedGraph(**{**pruned, "params": CodeParams(n, k, r, *pruned["params"][3:])})


def test_constructors_refuse_params_that_derive_params_did_not_make():
    # a hand-built CodeParams can hold any n1 or n2; the constructors
    # compare the whole record with derive_params(n, k, r)
    full = FullTannerGraph(derive_params(6, 3, 2), (frozenset({0, 1, 2}), frozenset({3, 4, 5})))
    pruned = PrunedGraph(derive_params(5, 2, 2), 1, (frozenset({0}), frozenset({0})))
    for graph in (full, pruned):
        p = graph.params
        for change in ({"n1": p.n1 - 1}, {"n1": p.n1 + 1}, {"n2": p.n2 + 1}, {"d_star": p.d_star + 1}):
            with pytest.raises(InvalidTanner):
                dataclasses.replace(graph, params=p._replace(**change))
        with pytest.raises(InvalidTanner):
            dataclasses.replace(graph, params=tuple(p))


def test_derive_params_admits_exactly_the_tanner_shapes():
    # a full Tanner graph needs n1 = ceil(n / (r + 1)) <= n - k local checks;
    # derive_params's rate bound n - k >= ceil(k / r) is the same condition
    for n in range(2, 41):
        for k in range(1, n):
            for r in range(1, k + 1):
                admitted = -(-n // (r + 1)) <= n - k
                try:
                    p = derive_params(n, k, r)
                except InvalidParams as err:
                    assert not admitted and err.reason == "locality", (n, k, r)
                else:
                    assert admitted and p.n1 <= p.n - p.k, (n, k, r)


def test_negative_global_count_rejected():
    # four local checks add up to more than n - k = 3 checks in all
    checks = [[0, 1, 2], [3, 4, 5], [0, 1, 3], [2, 4, 5]]
    with pytest.raises(InvalidTanner):
        FullTannerGraph(derive_params(6, 3, 2), tuple(frozenset(c) for c in checks))


def test_invalid_tanner_structures():
    p = derive_params(6, 3, 3)
    with pytest.raises(InvalidTanner):
        FullTannerGraph(p, ())
    with pytest.raises(InvalidTanner):  # check degree wrong
        FullTannerGraph(p, (frozenset({0, 1}),))
    with pytest.raises(InvalidTanner):  # variable 5 uncovered
        FullTannerGraph(p, (frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4})))
    with pytest.raises(InvalidTanner):  # edge identity broken
        PrunedGraph(p, 1, (frozenset({0}), frozenset({0})))
