import random
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcdist import multigraph
from lrcdist.constructions import almost_regular, balanced_forest, cycle_graph, saturated_pair_graph
from lrcdist.errors import BadArgs, BadK, EnvelopeExceeded, UnknownVertex
from lrcdist.multigraph import (
    SUBSET_BUDGET,
    ForbiddenFamily,
    Multigraph,
    _densest,
    _enumerate,
    _forest_density,
    is_family_free,
    k_density,
    multigraph_from_json,
    multigraph_to_json,
)


def complete_graph(n):
    return saturated_pair_graph(n, 1)


def density_profile(g):
    """Largest induced size for every k in 0..order, by one pass over all vertex subsets."""
    n = g.order
    rows = [[0] * n for _ in range(n)]
    for (u, v), m in g.pair_multiplicities():
        rows[u][v] = rows[v][u] = m
    size_of = [0] * (1 << n)
    best = [0] * (n + 1)
    for mask in range(1, 1 << n):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        row = rows[v]
        s = size_of[rest]
        w = rest
        while w:
            u = (w & -w).bit_length() - 1
            s += row[u]
            w &= w - 1
        size_of[mask] = s
        c = mask.bit_count()
        if s > best[c]:
            best[c] = s
    return best


def brute_density(g, k):
    # independent oracle: recompute from raw multiplicities
    return max(
        sum(g.multiplicity(u, v) for u, v in combinations(combo, 2))
        for combo in combinations(range(g.order), k)
    )


def random_multigraph(rng, order, size):
    pairs = list(combinations(range(order), 2))
    mult = {}
    for _ in range(size):
        u, v = rng.choice(pairs)
        mult[(u, v)] = mult.get((u, v), 0) + 1
    return Multigraph(order, mult)


def test_induced_size_examples():
    c4 = cycle_graph(4)
    assert c4.induced_size({0, 1, 2}) == 2
    double = Multigraph(2, {(0, 1): 2})
    assert double.induced_size({0, 1}) == 2
    k4 = complete_graph(4)
    for combo in combinations(range(4), 3):
        assert k4.induced_size(combo) == 3


def test_induced_size_unknown_vertex():
    with pytest.raises(UnknownVertex):
        cycle_graph(4).induced_size({0, 7})


def test_non_integer_vertices_rejected():
    # the constructor holds vertices to the rule the JSON reader applies:
    # True is not the vertex 1
    for multiplicities in ({(0.5, 1): 1}, {(True, 2): 1}, {(0, 2.0): 1}):
        with pytest.raises(BadArgs):
            Multigraph(3, multiplicities)
    g = cycle_graph(4)
    h = Multigraph(3, {(1, 2): 1})
    for call in (
        lambda: g.multiplicity(0.5, 1),
        lambda: g.induced_size({0.5, 1}),
        lambda: h.multiplicity(True, 2),
        lambda: h.multiplicity(2, False),
        lambda: h.induced_size({True, 2}),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize(
    "order, multiplicities",
    [
        (3, {(0, 1): 1.5}),
        (3, {(0, 1): 2.0}),
        (3, {(0, 1): True}),
        (True, {}),
        (2.5, {(0, 1): 1}),
        (3.0, {}),
    ],
)
def test_non_integer_order_and_multiplicities_rejected(order, multiplicities):
    with pytest.raises(BadArgs):
        Multigraph(order, multiplicities)


def test_k_density_examples():
    assert k_density(cycle_graph(5), 3) == 2
    assert k_density(complete_graph(4), 3) == 3
    forest = balanced_forest(5, 3)  # tree orders {2, 2, 1}
    assert sorted(len(c) for c in [[0, 1], [2, 3], [4]]) == [1, 2, 2]
    assert k_density(forest, 3) == 1
    assert brute_density(forest, 3) == 1


def test_k_density_bad_k():
    for k in (0, 5, True, 1.5, 2.0, "2"):
        with pytest.raises(BadK):
            k_density(cycle_graph(4), k)


def test_k_density_past_the_subset_budget_fails_at_once():
    start = time.perf_counter()
    with pytest.raises(EnvelopeExceeded):
        k_density(cycle_graph(40), 20)
    with pytest.raises(EnvelopeExceeded):
        is_family_free(cycle_graph(40), ForbiddenFamily(20, 19))
    assert time.perf_counter() - start < 1
    # the closed forms and the whole-size test come before the budget
    assert k_density(cycle_graph(40), 2) == 1
    assert k_density(balanced_forest(40, 2), 20) == 19
    assert is_family_free(cycle_graph(40), ForbiddenFamily(20, 40))


def test_subset_budget_matches_the_full_binomial():
    # the budget test bounds C(n, k) instead of forming it, and must still
    # refuse exactly the walks over more than SUBSET_BUDGET subsets; with
    # cap -1 an allowed walk stops at its first subset
    for n in range(3, 120):
        g = cycle_graph(n)  # n edges: no forest, so k != 2 reaches the walk
        for k in range(1, n + 1):
            if k == 2:
                continue
            if comb(n, k) > SUBSET_BUDGET:
                with pytest.raises(EnvelopeExceeded):
                    _densest(g, k, -1)
            else:
                _densest(g, k, -1)


def test_family_free_examples():
    assert is_family_free(cycle_graph(4), ForbiddenFamily(3, 2))
    assert not is_family_free(complete_graph(4), ForbiddenFamily(3, 2))
    g = Multigraph(4, {(0, 1): 2})  # double edge plus two isolated vertices
    assert not is_family_free(g, ForbiddenFamily(3, 1))


@pytest.mark.parametrize("order, max_size", [(3, 1.5), (3.0, 2), (True, 0), (3, False), ("3", 2)])
def test_forbidden_family_rejects_non_integers(order, max_size):
    with pytest.raises(BadArgs):
        ForbiddenFamily(order, max_size)


def test_loops_rejected():
    with pytest.raises(BadArgs):
        Multigraph(3, {(1, 1): 1})
    with pytest.raises(BadArgs):
        multigraph_from_json({"order": 3, "edges": [[0, 1], [2, 2]]})


def test_density_invariants_random():
    rng = random.Random(7)
    for _ in range(150):
        order = rng.randint(2, 8)
        g = random_multigraph(rng, order, rng.randint(0, 14))
        profile = density_profile(g)
        assert k_density(g, order) == g.size
        assert profile[order] == g.size
        prev = 0
        for k in range(1, order + 1):
            d = k_density(g, k)
            assert d == brute_density(g, k)
            assert d == profile[k]
            assert d >= prev
            prev = d
            # caps at, below and above the whole size: the size bound, the
            # early exit and the full enumeration inside is_family_free
            for s in range(g.size + 2):
                assert is_family_free(g, ForbiddenFamily(k, s)) == (d <= s)
        # dropping a minimum-degree vertex keeps at least size - deg(v) edges
        degs = g.degrees()
        if order >= 2:
            assert k_density(g, order - 1) >= g.size - min(degs)


def partitions(n, largest=None):
    """Every partition of n into positive parts, largest part first."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def random_forest(rng, orders):
    """A simple forest with a random tree of each order, on shuffled vertex labels."""
    label = list(range(sum(orders)))
    rng.shuffle(label)
    edges, start = [], 0
    for c in orders:
        # attaching each vertex to a random earlier one gives paths, stars
        # and everything between
        edges += [(label[start + i], label[start + rng.randrange(i)]) for i in range(1, c)]
        start += c
    return Multigraph.from_edges(len(label), edges)


def test_forest_closed_form_matches_the_walk():
    # every partition of n <= 12 into component orders (isolated vertices
    # are parts of 1), with a random tree per component, at every k
    rng = random.Random(21)
    for n in range(1, 13):
        for orders in partitions(n):
            g = random_forest(rng, orders)
            assert g.size == n - len(orders)
            for k in range(1, n + 1):
                d = _forest_density(g, k)
                assert d == _densest(g, k) == _enumerate(g, k), (orders, k)
                for s in range(max(d - 1, 0), d + 1):
                    assert is_family_free(g, ForbiddenFamily(k, s)) == (d <= s)


def test_checks_match_their_whole_order_forms():
    # the checks read only the vertices on a pair; these references index
    # every vertex, as the checks did before
    def regular_by_degree_list(g):
        degs = g.degrees()
        return max(degs) - min(degs) <= 1

    def forest_density_over_every_vertex(g, k):
        root, comp = list(range(g.order)), [1] * g.order

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for (u, v), m in g.pair_multiplicities():
            u, v = find(u), find(v)
            if m > 1 or u == v:
                return None
            if comp[u] < comp[v]:
                u, v = v, u
            root[v] = u
            comp[u] += comp[v]
        orders = sorted((comp[v] for v in range(g.order) if root[v] == v), reverse=True)
        j = covered = 0
        while covered < k:
            covered += orders[j]
            j += 1
        return k - j

    rng = random.Random(24)
    for order in range(1, 40):
        graphs = [balanced_forest(order, c) for c in range(1, order + 1)]
        graphs += [almost_regular(order, size) for size in range(1, 2 * order)] if order > 1 else []
        graphs += [random_multigraph(rng, order, rng.randint(0, order)) for _ in range(5)] if order > 1 else []
        for g in graphs:
            assert g.is_almost_regular() == regular_by_degree_list(g)
            assert _densest(g, 1) == _enumerate(g, 1) == 0
            for k in range(1, order + 1):
                assert _forest_density(g, k) == forest_density_over_every_vertex(g, k), (g, k)
    assert Multigraph.empty(0).is_almost_regular()


def test_pair_closed_form_matches_the_walk():
    rng = random.Random(22)
    for _ in range(200):
        order = rng.randint(2, 9)
        g = random_multigraph(rng, order, rng.randint(0, 20))
        d = _densest(g, 2)
        assert d == _enumerate(g, 2) == brute_density(g, 2)
        for s in range(g.size + 1):
            assert is_family_free(g, ForbiddenFamily(2, s)) == (d <= s)


@pytest.mark.parametrize(
    "g",
    [
        Multigraph(5, {(0, 1): 2, (2, 3): 1}),  # a double edge
        cycle_graph(6),  # no fewer edges than vertices: not even tested
        Multigraph.from_edges(7, [(0, 1), (1, 2), (0, 2)]),  # a triangle and isolated vertices
        Multigraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]),  # n - 1 edges, one cycle
    ],
)
def test_non_forests_take_the_walk(g, monkeypatch):
    walks = []

    def counted(*args):
        walks.append(args)
        return _enumerate(*args)

    monkeypatch.setattr(multigraph, "_enumerate", counted)
    for k in range(3, g.order + 1):
        assert _forest_density(g, k) is None
        assert _densest(g, k) == brute_density(g, k)
    assert len(walks) == g.order - 2


def test_json_round_trip():
    g = Multigraph(5, {(0, 1): 2, (2, 4): 1})
    data = multigraph_to_json(g)
    assert data["order"] == 5
    assert data["edges"].count([0, 1]) == 2
    assert multigraph_from_json(data) == g


def test_json_malformed():
    with pytest.raises(BadArgs):
        multigraph_from_json({"edges": []})
    with pytest.raises(BadArgs):
        multigraph_from_json({"order": 2, "edges": [[0]]})
    # JSON true is not the integer 1, and 1.0 is not an integer
    for bad in (
        {"order": True, "edges": []},
        {"order": 2, "edges": [[0, True]]},
        {"order": 2, "edges": [[0, 1.0]]},
        # edges that are not a list
        {"order": 3, "edges": 5},
        {"order": 3, "edges": None},
    ):
        with pytest.raises(BadArgs):
            multigraph_from_json(bad)


def test_equality_and_hash():
    a = Multigraph.from_edges(3, [(0, 1), (0, 1)])
    b = Multigraph(3, {(0, 1): 2})
    assert a == b
    assert hash(a) == hash(b)
    assert a != Multigraph(3, {(0, 1): 1})


@st.composite
def pair_maps(draw):
    # both orientations of a pair, and zero multiplicities, may appear
    order = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(order) for v in range(order) if u != v]
    mult = draw(
        st.dictionaries(st.sampled_from(pairs), st.integers(0, 3), max_size=12)
        if pairs
        else st.just({})
    )
    vertices = draw(st.sets(st.integers(0, order - 1)) if order else st.just(set()))
    return order, mult, vertices


@settings(max_examples=300, deadline=None)
@given(pair_maps())
def test_pair_storage_matches_the_map(case):
    order, mult, vertices = case
    g = Multigraph(order, mult)
    back = multigraph_from_json(multigraph_to_json(g))
    assert back == g and hash(back) == hash(g)
    keys = [pair for pair, _ in g.pair_multiplicities()]
    assert keys == sorted(set(keys))
    assert all(u < v and m > 0 for (u, v), m in g.pair_multiplicities())
    for u in range(order):
        for v in range(order):
            assert g.multiplicity(u, v) == g.multiplicity(v, u)
    assert sum(g.degrees()) == 2 * g.size
    assert g.size == sum(mult.values())
    assert g.induced_size(vertices) == sum(
        m for (u, v), m in mult.items() if u in vertices and v in vertices
    )
