import random
from itertools import combinations

import pytest

from lrcdist.decider import decide
from lrcdist.errors import (
    InvalidTanner,
    NothingToReduce,
    ShapeMismatch,
)
from lrcdist.multigraph import Multigraph
from lrcdist.params import derive_params
from lrcdist.tanner import (
    FullTannerGraph,
    PrunedGraph,
    f2p,
    graph_to_pruned,
    p2f,
    reduce_check_nodes,
    refine,
    tanner_min_distance,
)


def neighborhood_size(t, checks):
    """|N(S)| for a set of check indices of a full Tanner graph (locals first, then globals)."""
    total = t.check_count
    local_count = len(t.local_checks)
    seen = set()
    for c in checks:
        if not 0 <= c < total:
            raise ValueError(f"check index {c} outside 0..{total - 1}")
        if c >= local_count:
            return t.n
        seen |= t.local_checks[c]
    return len(seen)


def witness_tanner(n, k, r):
    p = derive_params(n, k, r)
    d = decide(p)
    assert d.witness is not None
    return p, d, p2f(graph_to_pruned(d.witness, p))


def random_full_tanner(rng, n, k, r, locals_count):
    """Random full Tanner graph: deal every variable at least once, then fill."""
    n1 = -(-n // (r + 1))
    assert n1 <= locals_count <= n - k
    while True:
        slots = locals_count * (r + 1)
        fill = list(range(n))
        rng.shuffle(fill)
        while len(fill) < slots:
            fill.append(rng.randrange(n))
        rng.shuffle(fill)
        checks = [fill[i * (r + 1):(i + 1) * (r + 1)] for i in range(locals_count)]
        if all(len(set(c)) == r + 1 for c in checks):
            return FullTannerGraph(
                n=n,
                k=k,
                r=r,
                local_checks=tuple(frozenset(c) for c in checks),
                global_count=(n - k) - locals_count,
            )


def random_pruned(rng):
    n, k, r = rng.choice([(8, 4, 3), (10, 5, 4), (12, 7, 3), (9, 4, 2)])
    n1 = -(-n // (r + 1))
    locals_count = rng.randint(n1, n - k)
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
        n=12,
        k=8,
        r=3,
        local_checks=(
            frozenset({0, 1, 2, 3}),
            frozenset({4, 5, 6, 7}),
            frozenset({8, 9, 10, 11}),
        ),
        global_count=1,
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
    assert t.global_count == (p.n - p.k) - p.n1
    assert all(len(c) == p.r + 1 for c in t.local_checks)
    pr = f2p(t)
    full = p2f(pr, "last")
    assert full.global_count == t.global_count
    assert tanner_min_distance(full) == tanner_min_distance(t)


def test_p2f_rejects_bad_strategy_choice():
    p, d, t = witness_tanner(16, 9, 4)
    pr = f2p(t)
    with pytest.raises(InvalidTanner):
        p2f(pr, lambda cands, i: -1)


def test_neighborhood_size_examples():
    t = random_full_tanner(random.Random(0), 12, 7, 3, 3)
    # any subset containing a global check sees everything
    assert neighborhood_size(t, [0, 3]) == 12
    disjoint = FullTannerGraph(
        n=12,
        k=8,
        r=3,
        local_checks=(
            frozenset({0, 1, 2, 3}),
            frozenset({4, 5, 6, 7}),
            frozenset({8, 9, 10, 11}),
        ),
        global_count=1,
    )
    assert neighborhood_size(disjoint, [0, 1]) == 8
    sharing = FullTannerGraph(
        n=8,
        k=3,
        r=3,
        local_checks=(
            frozenset({0, 1, 2, 3}),
            frozenset({2, 3, 4, 5}),
            frozenset({4, 5, 6, 7}),
        ),
        global_count=2,
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
                assert nt == np_ + ((t.r + 1) * len(s) - ep)


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
    # capped at n - k (the cap binds exactly when k1 = 1)
    for (n, k, r) in [(6, 3, 3), (16, 9, 4), (12, 7, 3), (13, 7, 3)]:
        p, d, t = witness_tanner(n, k, r)
        assert tanner_min_distance(t) == min(p.d_star, p.n - p.k)


def test_tanner_min_distance_beyond_twenty_local_checks():
    # (42, 20, 1) decides by `divides`: 21 disjoint local checks and one global
    p, d, t = witness_tanner(42, 20, 1)
    assert d.rule == "divides"
    assert len(t.local_checks) == 21
    assert tanner_min_distance(t) == p.d_star == 4


def test_tanner_min_distance_vacuous_cap():
    # r = n - 1: the single local check sees every variable, all conditions
    # hold, and the distance reports exactly n - k
    t = FullTannerGraph(
        n=4, k=3, r=3, local_checks=(frozenset({0, 1, 2, 3}),), global_count=0
    )
    assert tanner_min_distance(t) == 1
    # k1 = 1 instances have d* = n - k + 1; the witness graph satisfies every
    # condition and the cap binds at n - k
    p, d, t = witness_tanner(6, 3, 3)
    assert p.d_star == 4
    assert tanner_min_distance(t) == 3


def test_non_witness_graph_scores_below_d_star():
    # a triangle (3-density 3 > k2 = 2) must not reach d* for (13, 7, 3)
    p = derive_params(13, 7, 3)
    bad = Multigraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    t = p2f(graph_to_pruned(bad, p))
    assert tanner_min_distance(t) < p.d_star


def test_p2f_strategy_invariance():
    rng = random.Random(17)
    strategies = [
        "first",
        "last",
        "cycle",
        lambda cands, i: rng.choice(cands),
        lambda cands, i: cands[(7 * i + 3) % len(cands)],
    ]
    for _ in range(12):
        pr = random_pruned(rng)
        distances = {tanner_min_distance(p2f(pr, s)) for s in strategies}
        assert len(distances) == 1


def test_reduce_check_nodes():
    rng = random.Random(23)
    reduced_any = False
    for _ in range(30):
        pr = random_pruned(rng)
        if pr.h == pr.n1:
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
        assert out.h == pr.n1
        assert out.m == pr.n2
        degrees = [sum(1 for c in out.checks if v in c) for v in range(out.m)]
        assert all(d == 2 for d in degrees)
        assert tanner_min_distance(p2f(out)) >= before
        assert refine(out) == out


def brute_tanner_distance(t):
    """Referee: evaluate the distance condition over every check subset."""
    n, k = t.n, t.k
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
            for s in combinations(range(t.check_count), eta):
                if nbrs(s) < eta + k:
                    return False
        return True

    return max(d for d in range(1, n - k + 1) if holds(d))


def test_tanner_min_distance_matches_brute_definition():
    rng = random.Random(47)
    for _ in range(40):
        n, k, r = rng.choice([(8, 4, 3), (10, 5, 4), (12, 7, 3), (9, 4, 2)])
        n1 = -(-n // (r + 1))
        t = random_full_tanner(rng, n, k, r, rng.randint(n1, n - k))
        assert tanner_min_distance(t) == brute_tanner_distance(t)


def test_constructors_reject_non_integers():
    checks = (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    full = dict(n=6, k=3, r=2, local_checks=checks, global_count=1)
    assert tanner_min_distance(FullTannerGraph(**full)) == 3
    for change in (
        {"n": 6.0},
        {"k": 3.0},
        {"r": True},
        {"global_count": 1.0},
        {"local_checks": (frozenset({0, 1, 2.5}), frozenset({3, 4, 5}))},
    ):
        with pytest.raises(InvalidTanner):
            FullTannerGraph(**{**full, **change})
    pruned = dict(n=5, k=2, r=2, m=1, checks=(frozenset({0}), frozenset({0})))
    assert PrunedGraph(**pruned).h == 2
    for change in (
        {"n": 5.0},
        {"k": 2.0},
        {"r": 2.0},
        {"m": True},
        {"checks": (frozenset({0.0}), frozenset({0.0}))},
    ):
        with pytest.raises(InvalidTanner):
            PrunedGraph(**{**pruned, **change})


def test_negative_global_count_rejected():
    # four local checks and -1 global ones add up to n - k = 3
    checks = [[0, 1, 2], [3, 4, 5], [0, 1, 3], [2, 4, 5]]
    with pytest.raises(InvalidTanner):
        FullTannerGraph(6, 3, 2, tuple(frozenset(c) for c in checks), -1)


def test_invalid_tanner_structures():
    with pytest.raises(InvalidTanner):
        FullTannerGraph(n=6, k=3, r=3, local_checks=(), global_count=3)
    with pytest.raises(InvalidTanner):  # check degree wrong
        FullTannerGraph(
            n=6, k=3, r=3, local_checks=(frozenset({0, 1}),), global_count=2
        )
    with pytest.raises(InvalidTanner):  # variable 5 uncovered
        FullTannerGraph(
            n=6,
            k=3,
            r=3,
            local_checks=(frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4})),
            global_count=1,
        )
    with pytest.raises(InvalidTanner):  # edge identity broken
        PrunedGraph(n=6, k=3, r=3, m=1, checks=(frozenset({0}), frozenset({0})))
