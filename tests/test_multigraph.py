import random
from itertools import combinations

import pytest

from lrcdist.constructions import balanced_forest, cycle_graph, saturated_pair_graph
from lrcdist.errors import BadArgs, BadK, UnknownVertex
from lrcdist.multigraph import (
    ForbiddenFamily,
    Multigraph,
    density_profile,
    induced_size,
    is_family_free,
    k_density,
    multigraph_from_json,
    multigraph_to_json,
)


def complete_graph(n):
    return saturated_pair_graph(n, 1)


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
    assert induced_size(c4, {0, 1, 2}) == 2
    double = Multigraph(2, {(0, 1): 2})
    assert induced_size(double, {0, 1}) == 2
    k4 = complete_graph(4)
    for combo in combinations(range(4), 3):
        assert induced_size(k4, combo) == 3


def test_induced_size_unknown_vertex():
    with pytest.raises(UnknownVertex):
        induced_size(cycle_graph(4), {0, 7})


def test_k_density_examples():
    assert k_density(cycle_graph(5), 3) == 2
    assert k_density(complete_graph(4), 3) == 3
    forest = balanced_forest(5, 3)  # tree orders {2, 2, 1}
    assert sorted(len(c) for c in [[0, 1], [2, 3], [4]]) == [1, 2, 2]
    assert k_density(forest, 3) == 1
    assert brute_density(forest, 3) == 1


def test_k_density_bad_k():
    with pytest.raises(BadK):
        k_density(cycle_graph(4), 0)
    with pytest.raises(BadK):
        k_density(cycle_graph(4), 5)


def test_family_free_examples():
    assert is_family_free(cycle_graph(4), ForbiddenFamily(3, 2))
    assert not is_family_free(complete_graph(4), ForbiddenFamily(3, 2))
    g = Multigraph(4, {(0, 1): 2})  # double edge plus two isolated vertices
    assert not is_family_free(g, ForbiddenFamily(3, 1))


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


def test_equality_and_hash():
    a = Multigraph.from_edges(3, [(0, 1), (0, 1)])
    b = Multigraph(3, {(0, 1): 2})
    assert a == b
    assert hash(a) == hash(b)
    assert a != Multigraph(3, {(0, 1): 1})
