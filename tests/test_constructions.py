import random
from itertools import combinations_with_replacement

import pytest

from lrcdist.constructions import (
    DegreeSequence,
    almost_regular,
    balanced_forest,
    cycle_graph,
    is_graphic,
    realize,
    saturated_pair_graph,
    saturated_pairs,
    turan_graph,
    turan_pairs,
)
from lrcdist.decider import _take, forest_component_min
from lrcdist.errors import BadArgs, NotGraphic
from lrcdist.multigraph import ForbiddenFamily, Multigraph, is_family_free, k_density


def brute_realizable(degrees):
    """Independent realizability oracle: search pair multiplicities directly."""
    n = len(degrees)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    residual = list(degrees)

    def rec(i):
        if i == len(pairs):
            return all(d == 0 for d in residual)
        u, v = pairs[i]
        # prune: a vertex whose remaining pairs are exhausted must be at zero
        cap = min(residual[u], residual[v])
        for m in range(cap, -1, -1):
            residual[u] -= m
            residual[v] -= m
            if rec(i + 1):
                residual[u] += m
                residual[v] += m
                return True
            residual[u] += m
            residual[v] += m
        return False

    return rec(0)


def test_balanced_forest_examples():
    g = balanced_forest(7, 3)
    assert g.size == 4
    comp_orders = component_orders(g)
    assert sorted(comp_orders) == [2, 2, 3]
    assert balanced_forest(5, 5).size == 0
    p4 = balanced_forest(4, 1)
    assert p4.size == 3
    assert max(p4.degrees()) == 2


def component_orders(g):
    seen = set()
    orders = []
    for start in range(g.order):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            for u in range(g.order):
                if g.multiplicity(v, u) and u not in comp:
                    stack.append(u)
        seen |= comp
        orders.append(len(comp))
    return orders


def test_balanced_forest_bad_args():
    with pytest.raises(BadArgs):
        balanced_forest(4, 0)
    with pytest.raises(BadArgs):
        balanced_forest(4, 5)


def test_cycle_examples():
    assert cycle_graph(5).size == 5
    assert cycle_graph(3).size == 3
    two = cycle_graph(2)
    assert two.size == 2 and two.multiplicity(0, 1) == 2


def test_cycle_density_is_k_minus_1():
    for n in range(4, 9):
        for k in range(3, n):
            assert k_density(cycle_graph(n), k) == k - 1


def test_saturated_examples():
    assert saturated_pair_graph(3, 2).size == 6
    k4 = saturated_pair_graph(4, 1)
    assert k4.size == 6 and all(d == 3 for d in k4.degrees())
    assert saturated_pair_graph(2, 3).multiplicity(0, 1) == 3


def test_turan_examples():
    t = turan_graph(4, 2)
    assert t.size == 4
    assert sorted(t.degrees()) == [2, 2, 2, 2]
    assert turan_graph(5, 4).size == 9
    assert turan_graph(5, 5).size == 10  # complete graph
    with pytest.raises(BadArgs):
        turan_graph(3, 4)


def test_turan_is_clique_free():
    for n in range(3, 8):
        for parts in range(2, n + 1):
            g = turan_graph(n, parts)
            if parts + 1 <= n:
                fam = ForbiddenFamily(parts + 1, parts * (parts + 1) // 2 - 1)
                assert is_family_free(g, fam)


@pytest.mark.parametrize("degrees", [[1.9, 1.2, 1.7], ["2", "1", "1"], [2, True, 1], ["2", 1]])
def test_degree_sequence_rejects_non_integers(degrees):
    with pytest.raises(BadArgs):
        DegreeSequence(degrees)


def test_is_graphic_examples():
    assert is_graphic(DegreeSequence([3, 3, 2]))
    assert not is_graphic(DegreeSequence([3, 1]))
    assert is_graphic(DegreeSequence([2, 2, 2]))


def test_realize_examples():
    g = realize(DegreeSequence([3, 3, 2]))
    assert g.degrees() == (3, 3, 2)
    g = realize(DegreeSequence([2, 2, 2, 2]))
    assert g.degrees() == (2, 2, 2, 2)
    assert realize(DegreeSequence([0, 0])).size == 0
    with pytest.raises(NotGraphic):
        realize(DegreeSequence([3, 1]))


def test_realize_exhaustive_small():
    # every sequence with n <= 5 and entries <= 5: formula matches brute-force
    # realizability, and realized outputs reproduce the sequence exactly
    for n in range(1, 6):
        for degs in combinations_with_replacement(range(5, -1, -1), n):
            seq = DegreeSequence(degs)
            formula = is_graphic(seq)
            assert formula == brute_realizable(seq.degrees)
            if formula:
                assert realize(seq).degrees() == seq.degrees


def test_realize_reproduces_every_graphic_sequence_to_8():
    # wider sweep without the brute oracle: every graphic sequence with
    # n <= 8 and degrees <= 8 must be realized exactly
    for n in range(1, 9):
        for degs in combinations_with_replacement(range(8, -1, -1), n):
            seq = DegreeSequence(degs)
            if is_graphic(seq):
                assert realize(seq).degrees() == seq.degrees


def test_almost_regular_examples():
    assert sorted(almost_regular(4, 4).degrees()) == [2, 2, 2, 2]
    assert sorted(almost_regular(5, 7).degrees()) == [2, 3, 3, 3, 3]
    assert almost_regular(3, 0).size == 0
    with pytest.raises(BadArgs):
        almost_regular(1, 2)


def test_almost_regular_costs_its_pairs_not_its_edges():
    # 2 * 10**21 edge ends: only a head, one two-lap block and a tail are listed
    assert dict(almost_regular(2, 10**21).pair_multiplicities()) == {(0, 1): 10**21}
    g = almost_regular(3, 10**20)
    assert g.size == 10**20
    assert g.is_almost_regular()


def test_almost_regular_random():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 9)
        m = rng.randint(0, 12)
        g = almost_regular(n, m)
        assert g.size == m
        assert g.is_almost_regular()


@pytest.mark.parametrize("build, args", [
    (almost_regular, (10, True)),
    (almost_regular, (10, 2.0)),
    (almost_regular, (5, 2.5)),
    (almost_regular, (1, -1)),
    (balanced_forest, (5, True)),
    (balanced_forest, (5.0, 2)),
    (cycle_graph, (3.0,)),
    (saturated_pairs, (3, True)),
    (turan_pairs, (4, True)),
    (turan_pairs, (4.0, 2)),
])
def test_builders_reject_a_bool_or_a_non_integer(build, args):
    # True is not the integer 1 and 2.0 is no count; the error names the refused value
    with pytest.raises(BadArgs) as refused:
        list(build(*args)) if build in (saturated_pairs, turan_pairs) else build(*args)
    assert repr(args[-1]) in str(refused.value)


def test_constructed_degree_sequences_are_graphic():
    for g in [
        balanced_forest(7, 2),
        cycle_graph(6),
        saturated_pair_graph(4, 3),
        turan_graph(6, 3),
        almost_regular(5, 8),
    ]:
        assert is_graphic(DegreeSequence(g.degrees()))


def test_balanced_forest_freeness_matches_component_bound():
    # the closed-form minimum component count agrees with direct density
    # checks of the balanced forest, for every shape in the envelope
    for n1 in range(2, 11):
        for k1 in range(2, n1 + 1):
            for k2 in range(0, k1 - 1):
                fam = ForbiddenFamily(k1, k2)
                c_min = forest_component_min(n1, k1, k2)
                for c in range(1, n1 + 1):
                    free = is_family_free(balanced_forest(n1, c), fam)
                    assert free == (c >= c_min), (n1, k1, k2, c, c_min)


def almost_regular_cases():
    """(order, size) inputs of almost_regular: every order < 40, random orders
    to 400 with sizes to 30 * order, t = 1 (odd order, 2 * size = 1 mod
    order), where the prefix's 0 would meet the first lap's 0, and lo >= 4."""
    rng = random.Random(27)
    cases = [(order, size) for order in range(2, 40) for size in range(1, 3 * order)]
    cases += [(order, rng.randint(1, 30 * order)) for order in (rng.randint(2, 400) for _ in range(100))]
    cases += [(order, (lo * order + 1) // 2) for order in (3, 5, 9, 41, 399) for lo in (1, 3, 29)]
    # lo >= 4: whole two-lap blocks past the head, with and without a tail,
    # at even and odd orders and with the head ending on either end of a pair
    cases += [(order, (lo * order + t) // 2) for order in (2, 3, 6, 7, 40, 41) for lo in (4, 5, 7, 12)
              for t in range(0, order, 1 + order // 8) if (lo * order + t) % 2 == 0]
    return cases


def test_builders_match_their_whole_order_forms():
    # the builders skip the vertices that carry no edge; these references
    # visit every vertex, and must give the same pairs in the same order
    def forest_over_every_component(order, components):
        base, extra = divmod(order, components)
        edges, start = [], 0
        for i in range(components):
            length = base + (1 if i < extra else 0)
            edges += [(v, v + 1) for v in range(start, start + length - 1)]
            start += length
        return Multigraph.from_edges(order, edges)

    def turan_pairs_by_block_ends(order, parts):
        base, extra = divmod(order, parts)
        block_end = []
        for i in range(parts):
            length = base + (1 if i < extra else 0)
            block_end.extend([len(block_end) + length] * length)
        return [((u, v), 1) for u in reversed(range(order)) for v in reversed(range(block_end[u], order))]

    # almost_regular against the greedy heap
    for order, size in almost_regular_cases():
        hi, lo, t = -(-2 * size // order), 2 * size // order, (2 * size) % order
        assert almost_regular(order, size) == realize(DegreeSequence([hi] * t + [lo] * (order - t)))
    for order in range(1, 40):
        for parts in range(1, order + 1):
            assert balanced_forest(order, parts) == forest_over_every_component(order, parts)
            assert list(turan_pairs(order, parts)) == turan_pairs_by_block_ends(order, parts)


def test_builders_match_the_validated_constructor():
    # the builders hand their pairs to Multigraph._of_pairs, which checks
    # nothing; the checked constructor must build the same graph from them,
    # with the pairs in the same order, on every input of the test above
    def validated(g):
        checked = Multigraph(g.order, dict(g.pair_multiplicities()))
        assert list(checked.pair_multiplicities()) == list(g.pair_multiplicities())
        assert (checked.size, hash(checked)) == (g.size, hash(g)) and checked == g
        return g

    for order, size in almost_regular_cases():
        validated(almost_regular(order, size))
    for order in range(1, 40):
        for parts in range(1, order + 1):
            validated(balanced_forest(order, parts))
            turan = validated(turan_graph(order, parts))
            for size in {0, 1, turan.size // 2, turan.size, turan.size + 1}:
                validated(_take(order, turan_pairs(order, parts), size))
        for m in range(4) if order >= 2 else ():
            full = validated(saturated_pair_graph(order, m))
            for size in {0, 1, full.size // 3, full.size}:
                validated(_take(order, saturated_pairs(order, m), size))
