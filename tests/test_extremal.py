import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcdist import extremal
from lrcdist.errors import BadArgs, EnvelopeExceeded, SelfCheckFailed, UnboundedFamily
from lrcdist.extremal import (
    _FAR,
    _add_edge,
    _circulant_vectors,
    _induced_caps,
    _moore_cap,
    _seed_orders,
    free_multigraph,
    max_size_girth,
    max_size_multigraph,
    max_size_simple,
    t_bound,
)
from lrcdist.multigraph import (
    ForbiddenFamily,
    Multigraph,
    is_family_free,
    k_density,
)


def has_short_cycle(g, k):
    """Independent girth check: BFS distances on the simple graph."""
    n = g.order
    adj = [[v for v in range(n) if g.multiplicity(u, v)] for u in range(n)]
    for u in range(n):
        for v in adj[u]:
            if u < v:
                # distance from u to v avoiding the edge (u, v)
                dist = {u: 0}
                frontier = [u]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for y in adj[x]:
                            if (x, y) in ((u, v), (v, u)):
                                continue
                            if y not in dist:
                                dist[y] = dist[x] + 1
                                nxt.append(y)
                    frontier = nxt
                if v in dist and dist[v] + 1 <= k:
                    return True
    if any(g.multiplicity(u, v) > 1 for u in range(n) for v in range(u + 1, n)):
        return True
    return False


def test_multigraph_oracle_examples():
    res = max_size_multigraph(4, ForbiddenFamily(3, 2))
    assert res.value == 4
    assert res.witness.size == 4
    assert max_size_multigraph(3, ForbiddenFamily(2, 0)).value == 0
    assert max_size_multigraph(5, ForbiddenFamily(3, 2)).value == 6


def test_simple_oracle_examples():
    assert max_size_simple(4, ForbiddenFamily(3, 2)).value == 4
    # the whole vertex set is itself a 5-subset, so size is capped at 4;
    # consistent with girth > 5 forcing a forest on 5 vertices
    assert max_size_simple(5, ForbiddenFamily(5, 4)).value == 4
    assert max_size_simple(3, ForbiddenFamily(3, 2)).value == 2


def test_girth_oracle_examples():
    res = max_size_girth(5, 4)
    assert res.value == 5
    assert res.witness.size == 5
    assert max_size_girth(5, 5).value == 4
    assert max_size_girth(4, 3).value == 4


def test_witnesses_satisfy_their_own_predicate():
    for order in range(3, 7):
        for fam in [ForbiddenFamily(3, 2), ForbiddenFamily(3, 1), ForbiddenFamily(order, order - 1)]:
            res = max_size_multigraph(order, fam)
            assert res.witness.order == order
            assert res.witness.size == res.value
            assert is_family_free(res.witness, fam)
            res = max_size_simple(order, fam)
            assert is_family_free(res.witness, fam)
            assert all(m <= 1 for _, m in res.witness.pair_multiplicities())
    # the girth answer rests on its witness alone, so check every one in
    # the envelope with the independent BFS
    for order in range(0, 11):
        for k in range(3, order + 3):
            res = max_size_girth(order, k)
            assert (res.witness.order, res.witness.size) == (order, res.value), (order, k)
            assert not has_short_cycle(res.witness, k), (order, k)


def test_multigraph_at_least_simple():
    for order in range(3, 7):
        for f_order in range(2, order + 1):
            for f_size in range(0, 4):
                fam = ForbiddenFamily(f_order, f_size)
                assert (
                    max_size_multigraph(order, fam).value
                    >= max_size_simple(order, fam).value
                )


def test_mantel_closed_form():
    for n in range(3, 8):
        assert max_size_multigraph(n, ForbiddenFamily(3, 2)).value == n * n // 4


def test_pair_family_closed_form():
    # forbidding 2-subsets of size > s caps every pair at s
    for n in range(2, 6):
        for s in range(0, 4):
            assert max_size_multigraph(n, ForbiddenFamily(2, s)).value == s * n * (n - 1) // 2


def test_girth_equalities_small():
    for k in (3, 4, 5):
        for n in range(k, 8):
            fam = ForbiddenFamily(k, k - 1)
            ex_fam = max_size_simple(n, fam).value
            assert max_size_multigraph(n, fam).value == ex_fam
            assert ex_fam == max_size_girth(n, k).value


def test_envelope_and_family_validation():
    with pytest.raises(EnvelopeExceeded):
        max_size_multigraph(11, ForbiddenFamily(3, 2))
    with pytest.raises(UnboundedFamily):
        max_size_multigraph(4, ForbiddenFamily(1, 0))
    with pytest.raises(BadArgs):
        max_size_multigraph(3, ForbiddenFamily(4, 2))
    with pytest.raises(BadArgs):
        max_size_girth(5, 2)


@pytest.mark.parametrize("call", [
    lambda: max_size_girth(9.0, 4),
    lambda: max_size_girth(True, 3),
    lambda: max_size_girth(9, 4.0),
    lambda: max_size_girth("9", 4),
    lambda: max_size_multigraph(5.0, ForbiddenFamily(3, 2)),
    lambda: max_size_simple(4.0, ForbiddenFamily(2, 1)),
    lambda: free_multigraph(5.0, 3, ForbiddenFamily(3, 2)),
    lambda: free_multigraph(5, 3.0, ForbiddenFamily(3, 2)),
    lambda: free_multigraph(5, False, ForbiddenFamily(3, 2)),
])
def test_oracles_reject_non_integer_arguments(call):
    # the same answer is cached for the integer arguments first: a float or
    # a bool equal to them must not be served from that entry
    max_size_girth(9, 4), max_size_girth(1, 3)
    with pytest.raises(BadArgs):
        call()


def test_free_multigraph_matches_maximum():
    for order in range(2, 6):
        for fam in [ForbiddenFamily(2, 1), ForbiddenFamily(3, 2), ForbiddenFamily(3, 1)]:
            if fam.order > order:
                continue
            res = max_size_multigraph(order, fam)
            best = res.value
            for size in range(0, best + 3):
                g = free_multigraph(order, size, fam)
                if size <= best:
                    assert g is not None
                    assert g.order == order and g.size == size
                    assert is_family_free(g, fam)
                else:
                    assert g is None
                # the maximum is the decision search's witness at its own size
                if size == best:
                    assert g == res.witness


def test_free_multigraph_never_violated_family():
    # order-1 families cannot be violated; any size is realizable on >= 2 vertices
    g = free_multigraph(5, 7, ForbiddenFamily(1, 0))
    assert g is not None and g.size == 7
    # only the pair cap bounds the size, past a million edges too
    g = free_multigraph(3, 1_000_001, ForbiddenFamily(1, 0))
    assert g is not None and g.size == 1_000_001
    # orders 0 and 1 have no pairs: only the empty graph exists
    for order in (0, 1):
        assert free_multigraph(order, 0, ForbiddenFamily(1, 0)) == Multigraph.empty(order)
        for size in (1, 2):
            assert free_multigraph(order, size, ForbiddenFamily(1, 0)) is None


def ceil_peel(n1, n2, k1):
    """Reference for t_bound: the weaker peel, removing ceil(2t / m) edges at order m."""
    t = n2
    for m in range(n1, k1, -1):
        t -= -((-2 * t) // m)
    return t


def test_t_bound_examples():
    assert ceil_peel(5, 7, 3) == 2
    assert t_bound(5, 7, 3) == 3
    assert t_bound(6, 4, 6) == ceil_peel(6, 4, 6) == 4  # empty recursion
    with pytest.raises(BadArgs):
        t_bound(4, 3, 5)


def test_t_bound_matches_the_peel_from_n1():
    # the loop starts at min(n1, 2 * n2): above that a step removes nothing
    def peel_from_n1(n1, n2, k1):
        t = n2
        for m in range(n1, k1, -1):
            t -= (2 * t) // m
        return t

    for n1 in range(1, 30):
        for n2 in range(80):
            for k1 in range(1, n1 + 1):
                assert t_bound(n1, n2, k1) == peel_from_n1(n1, n2, k1), (n1, n2, k1)


def test_t_bound_soundness_random():
    rng = random.Random(11)
    pairs = None
    floor_beats_ceil = 0
    for _ in range(300):
        n1 = rng.randint(2, 7)
        n2 = rng.randint(0, 8)
        pairs = list(combinations(range(n1), 2))
        mult = {}
        for _ in range(n2):
            u, v = rng.choice(pairs)
            mult[(u, v)] = mult.get((u, v), 0) + 1
        g = Multigraph(n1, mult)
        for k1 in range(1, n1 + 1):
            fl = t_bound(n1, n2, k1)
            ce = ceil_peel(n1, n2, k1)
            assert fl >= ce
            if fl > ce >= 0:
                floor_beats_ceil += 1
            assert k_density(g, k1) >= fl
    assert floor_beats_ceil > 0


def test_determinism():
    a = max_size_multigraph(6, ForbiddenFamily(3, 2))
    b = max_size_multigraph(6, ForbiddenFamily(3, 2))
    assert a.witness == b.witness


def naive_family_max(order, fk, fs, simple):
    # referee with no pruning and no symmetry breaking
    from itertools import product

    pairs = list(combinations(range(order), 2))
    top = min(fs, 1) if simple else fs
    best = 0
    for assign in product(range(top + 1), repeat=len(pairs)):
        g = Multigraph(order, dict(zip(pairs, assign)))
        if is_family_free(g, ForbiddenFamily(fk, fs)):
            best = max(best, g.size)
    return best


def test_engine_matches_naive_enumeration():
    for order in range(2, 5):
        for fk in range(2, order + 1):
            for fs in range(0, 3):
                fam = ForbiddenFamily(fk, fs)
                naive = naive_family_max(order, fk, fs, False)
                assert max_size_multigraph(order, fam).value == naive
                assert max_size_simple(order, fam).value == naive_family_max(
                    order, fk, fs, True
                )
                for size in range(naive + 2):
                    assert (free_multigraph(order, size, fam) is not None) == (
                        size <= naive
                    )


def naive_girth_max(order, k):
    pairs = list(combinations(range(order), 2))
    best = 0
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Multigraph.from_edges(order, edges)
        if len(edges) > best and not has_short_cycle(g, k):
            best = len(edges)
    return best


def test_girth_engine_matches_naive_enumeration():
    for order in range(2, 6):
        for k in (3, 4, 5):
            assert max_size_girth(order, k).value == naive_girth_max(order, k)


def bfs_distances(order, edges, source):
    adj = [[] for _ in range(order)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


@st.composite
def edge_sequences(draw):
    order = draw(st.integers(2, 9))
    k = draw(st.integers(3, 7))
    pairs = [(u, v) for u in range(order) for v in range(order) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=24))
    return order, k, edges


@settings(max_examples=300, deadline=None)
@given(edge_sequences())
def test_bounded_distance_update_matches_bfs(case):
    # below k every entry is the BFS distance; elsewhere it is _FAR, which
    # the greedy seed counts as addable
    order, k, edges = case
    dist = [[0 if a == b else _FAR for b in range(order)] for a in range(order)]
    for step, (u, v) in enumerate(edges, 1):
        _add_edge(dist, u, v, k)
        for a in range(order):
            reach = bfs_distances(order, edges[:step], a)
            for b in range(order):
                if reach.get(b, _FAR) < k:
                    assert dist[a][b] == reach[b]
                else:
                    assert dist[a][b] == _FAR


def rescan_girth_search(order, k, seed_orders):
    """Reference exhaustive girth search: (maximum size, witness).

    A plain branch and bound over the pairs in lexicographic order, bounded
    only by the pairs still addable, recounted at every node; it copies the
    whole distance matrix for each added edge.  Its greedy seed tries the
    pair orders ``seed_orders(npairs)``, and a later node replaces the best
    only when it is larger.
    """
    pairs = list(combinations(range(order), 2))
    npairs = len(pairs)

    def add_edge(dist, u, v):
        nd = [row.copy() for row in dist]
        near_u = [(a, d) for a, d in enumerate(dist[u]) if d < k - 1]
        near_v = [(b, d) for b, d in enumerate(dist[v]) if d < k - 1]
        for a, da in near_u:
            for b, db in near_v:
                t = da + 1 + db
                if t < nd[a][b]:
                    nd[a][b] = nd[b][a] = t
        return nd

    no_edges = [[0 if a == b else _FAR for b in range(order)] for a in range(order)]
    best, best_edges = 0, []
    for perm in seed_orders(npairs):
        dist, chosen = no_edges, []
        for pi in perm:
            u, v = pairs[pi]
            if dist[u][v] >= k:
                chosen.append((u, v))
                dist = add_edge(dist, u, v)
        if len(chosen) > best:
            best, best_edges = len(chosen), chosen

    state = {"best": best, "edges": best_edges}
    edges, deg = [], [0] * order

    def dfs(i, size, dist):
        if size > state["best"]:
            state["best"] = size
            state["edges"] = edges.copy()
        if i == npairs:
            return
        u, v = pairs[i]
        if v == u + 1 and u >= 2 and deg[u - 2] < deg[u - 1]:
            return
        addable = sum(1 for a, b in pairs[i:] if dist[a][b] >= k)
        if size + addable <= state["best"]:
            return
        if dist[u][v] >= k:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
            dfs(i + 1, size + 1, add_edge(dist, u, v))
            deg[u] -= 1
            deg[v] -= 1
            edges.pop()
        dfs(i + 1, size, dist)

    dfs(0, 0, no_edges)
    return state["best"], Multigraph.from_edges(order, state["edges"])


def test_girth_search_matches_the_rescan_reference():
    # the oracle's Moore-certified best seed is the maximum, so the
    # exhaustive search never beats it and ends with the same value and witness
    for order in range(0, 8):
        for k in range(3, order + 2):
            value, witness = rescan_girth_search(order, k, _seed_orders)
            res = max_size_girth(order, k)
            assert (res.value, res.witness) == (value, witness), (order, k)


def reference_family_search(order, f_order, f_size, pair_cap, target, seed_orders):
    """Reference family search with no induced-size caps and no root cut.

    It builds its incidence tables on every call and bounds a node only
    with the capacity average and the sum of the rooms left, as the search
    did before the caps.  Its greedy seed tries the pair orders
    ``seed_orders(npairs)``.  Returns (best size, best assignment, target
    reached).
    """
    pairs = list(combinations(range(order), 2))
    npairs = len(pairs)
    subsets = list(combinations(range(order), f_order)) if f_order >= 2 else []
    nsub = len(subsets)
    sub_of_pair = [[] for _ in range(npairs)]
    pairs_of_sub = [[] for _ in range(nsub)]
    pair_index = {p: pi for pi, p in enumerate(pairs)}
    for si, s in enumerate(subsets):
        for p in combinations(s, 2):
            sub_of_pair[pair_index[p]].append(si)
            pairs_of_sub[si].append(pair_index[p])
    per_pair_subs = comb(order - 2, f_order - 2) if f_order >= 2 and order >= 2 else 0
    empty_room = [pair_cap] * npairs

    def add(cur, room, i, m):
        for s in sub_of_pair[i]:
            cur[s] += m
            spare = f_size - cur[s]
            for j in pairs_of_sub[s]:
                if room[j] > spare:
                    room[j] = spare

    best, best_assign = 0, {}
    for perm in seed_orders(npairs):
        cur = [0] * nsub
        room = empty_room.copy()
        tot = 0
        assign = {}
        for pi in perm:
            m = room[pi]
            if target is not None:
                m = min(m, target - tot)
            if m > 0:
                assign[pairs[pi]] = m
                tot += m
                add(cur, room, pi, m)
        if target is not None and tot >= target:
            return tot, assign, True
        if tot > best:
            best, best_assign = tot, assign

    cur = [0] * nsub
    room = empty_room.copy()
    deg = [0] * order
    assign_vec = [0] * npairs
    state = {"best": best, "assign": best_assign, "done": False}

    def dfs(i, size, residual):
        if size > state["best"]:
            state["best"] = size
            state["assign"] = {pairs[j]: assign_vec[j] for j in range(npairs) if assign_vec[j]}
            if target is not None and size >= target:
                state["done"] = True
                return
        if i == npairs:
            return
        u, v = pairs[i]
        if v == u + 1 and u >= 2 and deg[u - 2] < deg[u - 1]:
            return
        floor_needed = state["best"] if target is None else target - 1
        if per_pair_subs and size + residual // per_pair_subs <= floor_needed:
            return
        if size + sum(room[i:]) <= floor_needed:
            return
        top = room[i]
        if target is not None:
            top = min(top, target - size)
        saved = room.copy()
        for m in range(max(top, 0), -1, -1):
            if m:
                add(cur, room, i, m)
                deg[u] += m
                deg[v] += m
            assign_vec[i] = m
            dfs(i + 1, size + m, residual - m * len(sub_of_pair[i]))
            assign_vec[i] = 0
            if m:
                for s in sub_of_pair[i]:
                    cur[s] -= m
                room[:] = saved
                deg[u] -= m
                deg[v] -= m
            if state["done"]:
                return

    dfs(0, 0, nsub * f_size)
    reached = target is not None and state["best"] >= target
    return state["best"], state["assign"], reached


def small_families(max_size_above_simple):
    """Every family on 2 to 6 vertices with max_size up to C(family order, 2) + the excess."""
    for order in range(2, 7):
        for f_order in range(2, order + 1):
            for f_size in range(comb(f_order, 2) + max_size_above_simple + 1):
                yield order, ForbiddenFamily(f_order, f_size)


def assert_family_oracles_match_reference(seed_orders):
    # a max_size above C(family order, 2) binds only multigraphs and makes
    # the reference's exhaustive proofs slow; the caps test covers it
    for order, fam in small_families(0):
        fk, fs = fam.order, fam.max_size
        for oracle, pair_cap in ((max_size_multigraph, fs), (max_size_simple, min(fs, 1))):
            value, assign, _ = reference_family_search(order, fk, fs, pair_cap, None, seed_orders)
            res = oracle(order, fam)
            assert (res.value, res.witness) == (value, Multigraph(order, assign)), (order, fam)
        for size in range(max_size_multigraph(order, fam).value + 2):
            _, assign, reached = reference_family_search(order, fk, fs, min(fs, size), size, seed_orders)
            expected = Multigraph(order, assign) if reached else None
            assert free_multigraph(order, size, fam) == expected, (order, fam, size)


@pytest.fixture
def no_circulants(monkeypatch):
    """The family search with its circulant step off, on cold caches."""
    monkeypatch.setattr(extremal, "_circulant", lambda *args: None)
    extremal._max_size_family.cache_clear()
    yield
    extremal._max_size_family.cache_clear()


def test_family_search_matches_the_reference(no_circulants):
    # the caps cut only subtrees with nothing above the best so far (or at
    # the target), so values and witnesses are those of the plain search;
    # the reference has no circulant step, so the search runs without it
    assert_family_oracles_match_reference(_seed_orders)


def test_unseeded_family_search_matches_the_reference(monkeypatch, no_circulants):
    # Without the greedy seed the search starts from the empty graph and
    # replaces its best many times; a cap that cut a subtree holding a
    # larger graph would change the witness here.
    monkeypatch.setattr(extremal, "_seed_orders", lambda npairs: ())
    assert_family_oracles_match_reference(extremal._seed_orders)


def full_room_dfs(order, f_order, f_size, pair_cap, target):
    """The family DFS as it was when each edge lowered the room of every pair
    sharing a subset with it, earlier pairs included; no seeds, no circulants."""
    pairs, sub_of_pair, pairs_of_sub, _ = extremal._incidence(order, f_order)
    npairs = len(pairs)
    cap = _induced_caps(order, f_order, f_size, pair_cap)
    if cap[order] < target:
        return None
    cur = [0] * len(pairs_of_sub)
    room = [pair_cap] * npairs
    deg = [0] * order
    assign_vec = [0] * npairs

    def add(i, m):
        for s in sub_of_pair[i]:
            cur[s] += m
            spare = f_size - cur[s]
            for j in pairs_of_sub[s]:
                if room[j] > spare:
                    room[j] = spare

    def dfs(i, size, in_block):
        if size == target:
            return True
        if i == npairs:
            return False
        u, v = pairs[i]
        if v == u + 1:
            if u >= 2 and deg[u - 2] < deg[u - 1]:
                return False
            in_block = 0
        if size - in_block + cap[order - u] < target:
            return False
        e = i + order - v
        if size + sum(room[i:e]) + min(sum(room[e:]), cap[order - u - 1]) < target:
            return False
        saved = room.copy()
        for m in range(min(room[i], target - size), -1, -1):
            if m:
                add(i, m)
                deg[u] += m
                deg[v] += m
            assign_vec[i] = m
            if dfs(i + 1, size + m, in_block + m):
                return True
            assign_vec[i] = 0
            if m:
                for s in sub_of_pair[i]:
                    cur[s] -= m
                room[:] = saved
                deg[u] -= m
                deg[v] -= m
        return False

    if not dfs(0, 0, 0):
        return None
    return {pairs[j]: m for j, m in enumerate(assign_vec) if m}


def test_dfs_lowering_only_later_pairs_matches_the_full_room_dfs(monkeypatch):
    # the DFS reads no room before its own pair, so lowering only the later
    # pairs of each subset changes no branch, no cut and no witness
    monkeypatch.setattr(extremal, "_seed_orders", lambda npairs: ())
    monkeypatch.setattr(extremal, "_circulant", lambda *args: None)
    for order in range(3, 8):
        for f_order in range(3, order + 1):
            for f_size in range(6):
                top = _induced_caps(order, f_order, f_size, f_size)[order]
                for target in range(top + 2):
                    query = (order, f_order, f_size, min(f_size, target), target)
                    assert extremal._family_search(*query) == full_room_dfs(*query), query


def seed_walk_sizes(order, f_order, f_size, pair_cap):
    """The size each greedy seed reaches with no target: it takes all the room of each pair."""
    pairs = list(combinations(range(order), 2))
    subsets = list(combinations(range(order), f_order))
    sizes = []
    for perm in _seed_orders(len(pairs)):
        g = {}
        for pi in perm:
            u, v = pairs[pi]
            room = min(
                [pair_cap] + [f_size - sum(g.get(p, 0) for p in combinations(s, 2)) for s in subsets if u in s and v in s]
            )
            if room > 0:
                g[(u, v)] = room
        sizes.append(sum(g.values()))
    return sizes


def test_a_shape_whose_seeds_all_missed_walks_no_seed_above_their_reach(monkeypatch):
    walked = []

    def counted_seed_orders(npairs):
        walked.append(npairs)
        return _seed_orders(npairs)

    monkeypatch.setattr(extremal, "_seed_orders", counted_seed_orders)
    for order, f_order, f_size in [(5, 3, 2), (6, 4, 3), (7, 5, 4), (7, 3, 4), (8, 6, 3)]:
        shape = (order, f_order, f_size, f_size)
        reach = max(seed_walk_sizes(*shape))
        top = _induced_caps(*shape)[order]
        targets = range(top + 2)
        cold = []
        for target in targets:
            extremal._seed_reach.clear()
            cold.append(extremal._family_search(*shape, target))
        # asked from the top down, a miss comes first and every target at or
        # below the reach then walks the seeds; asked from the bottom up, the
        # first miss is at the reach + 1; a target above the cap walks none
        for sweep in (targets[::-1], targets):
            extremal._seed_reach.clear()
            missed = False
            for target in sweep:
                walked.clear()
                assert extremal._family_search(*shape, target) == cold[target], (shape, target)
                skipped = target > top or (missed and target > reach)
                assert walked == ([] if skipped else [comb(order, 2)]), (shape, target)
                if reach < target <= top:
                    assert extremal._seed_reach[shape] == reach, shape
                    missed = True
            assert missed, shape


def full_pass_seed_phase(order, f_order, f_size, pair_cap, target):
    """The greedy seeds as they were before a walk returned at the target: each
    pair takes min(room, edges still missing), every walk runs to its end, and
    the target is checked after it.  Returns (assignment or None, best walk)."""
    pairs, sub_of_pair, pairs_of_sub, _ = extremal._incidence(order, f_order)
    best = 0
    for perm in _seed_orders(len(pairs)):
        cur = [0] * len(pairs_of_sub)
        room = [pair_cap] * len(pairs)
        tot = 0
        assign = {}
        for pi in perm:
            m = min(room[pi], target - tot)
            if m > 0:
                assign[pairs[pi]] = m
                tot += m
                for s in sub_of_pair[pi]:
                    cur[s] += m
                    spare = f_size - cur[s]
                    for j in pairs_of_sub[s]:
                        if room[j] > spare:
                            room[j] = spare
        if tot == target:
            return assign, best
        best = max(best, tot)
    return None, best


class SeedsMissed(Exception):
    pass


def test_the_seed_phase_returns_what_the_full_pass_returns(monkeypatch):
    # a seed returns at the pair that reaches the target; a seed that misses
    # still walks every pair, so the reach kept for the shape is unchanged;
    # target 0 gives the empty graph, also where every pair has room
    def seeds_missed(*args):
        raise SeedsMissed

    monkeypatch.setattr(extremal, "_circulant", seeds_missed)
    for order in range(2, 8):
        for f_order in range(1, order + 1):
            for f_size in range(6):
                for pair_cap in range(f_size + 1):
                    shape = (order, f_order, f_size, pair_cap)
                    top = _induced_caps(*shape)[order]
                    for target in range(top + 2):
                        extremal._seed_reach.clear()
                        query = (*shape, target)
                        if target > top:
                            assert extremal._family_search(*query) is None, query
                            assert shape not in extremal._seed_reach, query
                            continue
                        assign, best = full_pass_seed_phase(*query)
                        if assign is not None:
                            found = extremal._family_search(*query)
                            assert list(found.items()) == list(assign.items()), query
                        else:
                            with pytest.raises(SeedsMissed):
                                extremal._family_search(*query)
                            assert extremal._seed_reach[shape] == best, query
    extremal._seed_reach.clear()


def circulant(order, x):
    return Multigraph(order, {
        (u, v): x[min(v - u, order - v + u) - 1] for u, v in combinations(range(order), 2)
    })


def test_circulant_vectors_are_exactly_the_free_ones():
    # with target 0 nothing is cut for size, so the walk must yield every
    # vector whose circulant passes the kernel, each once, and no other;
    # the step reaches every target some free circulant reaches
    for order in range(2, 9):
        half = order // 2
        for f_order in range(2, order + 1):
            for f_size in range(4):
                family = ForbiddenFamily(f_order, f_size)
                pair_cap = min(f_size, 2)
                yielded = [tuple(x) for x, _ in _circulant_vectors(order, f_order, f_size, pair_cap, 0)]
                free = [
                    x for x in product(range(pair_cap + 1), repeat=half)
                    if is_family_free(circulant(order, x), family)
                ]
                assert sorted(yielded) == sorted(free), (order, f_order, f_size)
                best = max(circulant(order, x).size for x in free)
                for target in range(best + 2):
                    assign = extremal._circulant(order, f_order, f_size, pair_cap, target)
                    assert (assign is not None) == (target <= best), (order, family, target)
                    if assign is not None:
                        g = Multigraph(order, assign)
                        assert g.size == target and is_family_free(g, family), (order, family, target)


def test_circulant_vectors_can_be_kept_as_yielded():
    # each yielded vector is its own tuple: collected without copying, the
    # walk's output is still every free vector
    kept = [x for x, _ in _circulant_vectors(6, 3, 3, 3, 0)]
    free = [
        x for x in product(range(4), repeat=3)
        if is_family_free(circulant(6, x), ForbiddenFamily(3, 3))
    ]
    assert sorted(kept) == sorted(free)


def test_circulant_witness_is_the_wagner_graph():
    # (8, 12) with every 5 vertices holding at most 5 edges: C8(1, 4),
    # which no greedy seed reaches
    assign = extremal._circulant(8, 5, 5, 5, 12)
    assert Multigraph(8, assign) == circulant(8, (1, 0, 0, 1))
    assert free_multigraph(8, 12, ForbiddenFamily(5, 5)) == circulant(8, (1, 0, 0, 1))


def test_circulant_step_is_capped(monkeypatch, no_circulants):
    # free_multigraph(5, 8, F(3, 3)): the seeds miss and the third vector
    # is the first to reach 8 edges.  free_multigraph(6, 10, F(5, 7)): the
    # walk runs out after 8 vectors and the DFS finds a witness.
    fast = (5, 8, ForbiddenFamily(3, 3))
    miss = (6, 10, ForbiddenFamily(5, 7))
    expected = [free_multigraph(*q) for q in (fast, miss)]  # step off
    monkeypatch.undo()
    pulled = []
    vectors = extremal._circulant_vectors

    def counted(*args):
        pulled.append(0)
        for item in vectors(*args):
            pulled[-1] += 1
            yield item

    monkeypatch.setattr(extremal, "_circulant_vectors", counted)
    assert extremal._circulant(5, 3, 3, 3, 8) is not None and pulled == [3]
    assert extremal._circulant(6, 5, 7, 7, 10) is None and pulled == [3, 8]
    monkeypatch.setattr(extremal, "_CIRCULANT_CAP", 2)
    pulled.clear()
    # past the cap the DFS decides, as with the step off
    assert [free_multigraph(*q) for q in (fast, miss)] == expected
    assert None not in expected and pulled == [2, 2]


def test_circulant_step_skips_graphs_without_pairs_or_families():
    for order, f_order in ((0, 2), (1, 2), (6, 1), (6, 0)):
        assert extremal._circulant(order, f_order, 0, 3, 3) is None
    assert free_multigraph(1, 1, ForbiddenFamily(1, 0)) is None
    assert free_multigraph(6, 5, ForbiddenFamily(1, 0)).size == 5


def test_induced_caps_hold():
    # cap[m] bounds the edges on any m vertices, so it is at least the
    # maximum of the order-m problem itself
    for order, fam in small_families(1):
        caps = _induced_caps(order, fam.order, fam.max_size, fam.max_size)
        for m in range(fam.order, order + 1):
            assert caps[m] >= max_size_multigraph(m, fam).value, (order, fam, m)


def test_girth_averaging_bound_holds():
    # a girth > k graph on n vertices has at most n * ex(n - 1) / (n - 2)
    # edges: each edge lies in n - 2 of its (n - 1)-vertex subgraphs
    for order in range(3, 10):
        for k in range(3, order + 2):
            bound = order * max_size_girth(order - 1, k).value // (order - 2)
            assert bound >= max_size_girth(order, k).value, (order, k)


def test_forest_girth_queries_skip_the_search():
    # girth > k on at most k vertices leaves a forest, and the greedy seed
    # already holds a spanning tree; each cold query is well under a second
    for k in (9, 10):
        max_size_girth.cache_clear()
        start = time.process_time()
        res = max_size_girth(9, k)
        assert time.process_time() - start < 1.0, k
        assert (res.value, res.witness.size) == (8, 8)


def fraction_moore_cap(order, k):
    """Most edges with girth > k on ``order`` vertices that the irregular Moore
    bound allows, with n0(d, g) evaluated in Fractions at d = 2e / order."""
    g = k + 1
    r = g // 2

    def n0(d):
        walk = sum((d - 1) ** i for i in range(r))
        return 1 + d * walk if g % 2 else 2 * walk

    e = order - 1
    while n0(Fraction(2 * (e + 1), order)) <= order:
        e += 1
    return e


def test_moore_cap_matches_a_fraction_evaluation():
    for order in range(1, 41):
        for k in range(3, 41):
            assert _moore_cap(order, k) == fraction_moore_cap(order, k), (order, k)


def test_moore_cap_counts_a_tie_as_fitting():
    # n0(d, g) equals the order exactly at an integer degree d, where the
    # cap is d * order / 2; the larger of these orders take the integer
    # sides of the test past 2^53
    for d in range(3, 7):
        for r in range(2, 12):
            walk = sum((d - 1) ** i for i in range(r))
            for order, k in ((1 + d * walk, 2 * r), (2 * walk, 2 * r - 1)):
                if order <= 5000:
                    assert _moore_cap(order, k) == d * order // 2, (d, order, k)


def test_moore_cap_is_a_forest_when_no_cycle_fits():
    # at d = 2 the bound asks for g = k + 1 vertices, more than the order
    assert _moore_cap(0, 3) == 0
    for order in range(1, 41):
        for k in range(max(order, 3), order + 6):
            assert _moore_cap(order, k) == order - 1, (order, k)


def test_moore_cap_holds_and_meets_the_girth_oracle():
    for order in range(0, 10):
        for k in range(3, order + 3):
            assert _moore_cap(order, k) == max_size_girth(order, k).value, (order, k)


def test_a_seed_above_the_moore_cap_fails_the_self_check(monkeypatch):
    monkeypatch.setattr(extremal, "_moore_cap", lambda order, k: order - 2)
    max_size_girth.cache_clear()
    try:
        with pytest.raises(SelfCheckFailed):
            max_size_girth(5, 3)
        # a seed below the cap is not certified either: with no pair orders
        # the seed is the empty graph, six edges below the cap
        monkeypatch.undo()
        monkeypatch.setattr(extremal, "_seed_orders", lambda npairs: ())
        max_size_girth.cache_clear()
        with pytest.raises(SelfCheckFailed):
            max_size_girth(5, 3)
    finally:
        max_size_girth.cache_clear()


def girth_walks(order, k):
    """Every greedy walk of the girth oracle, one per ``_seed_orders`` pair order."""
    pairs = list(combinations(range(order), 2))
    walks = []
    for perm in _seed_orders(len(pairs)):
        dist = [[0 if a == b else _FAR for b in range(order)] for a in range(order)]
        chosen = []
        for pi in perm:
            u, v = pairs[pi]
            if dist[u][v] == _FAR:
                chosen.append((u, v))
                _add_edge(dist, u, v, k)
        walks.append(chosen)
    return walks


def test_the_girth_oracle_stops_at_the_first_walk_that_meets_the_moore_cap(monkeypatch):
    # the oracle no longer runs the walks after its witness, so their check
    # against the cap is made here; for k >= order every walk builds the same
    # spanning forest, so k up to order + 1 covers every k
    ran = []

    def counted_seed_orders(npairs):
        for perm in _seed_orders(npairs):
            ran.append(perm)
            yield perm

    monkeypatch.setattr(extremal, "_seed_orders", counted_seed_orders)
    try:
        for order in range(0, 11):
            for k in range(3, order + 2):
                cap = _moore_cap(order, k)
                walks = girth_walks(order, k)
                sizes = list(map(len, walks))
                assert max(sizes) == cap, (order, k)
                first = sizes.index(cap)
                max_size_girth.cache_clear()
                ran.clear()
                res = max_size_girth(order, k)
                assert res.witness == Multigraph.from_edges(order, walks[first]), (order, k)
                assert len(ran) == first + 1, (order, k)
    finally:
        max_size_girth.cache_clear()


@st.composite
def family_queries(draw):
    order = draw(st.integers(2, 6))
    family = ForbiddenFamily(draw(st.integers(2, order)), draw(st.integers(0, 3)))
    size = draw(st.integers(0, family.max_size * order * (order - 1) // 2 + 2))
    return order, family, size


@settings(max_examples=200, deadline=None)
@given(family_queries())
def test_free_multigraph_witness_has_size_and_is_free(query):
    order, family, size = query
    g = free_multigraph(order, size, family)
    if g is not None:
        assert g.order == order and g.size == size
        assert is_family_free(g, family)


@settings(max_examples=200, deadline=None)
@given(family_queries())
def test_free_multigraph_existence_is_monotone_and_matches_maximum(query):
    order, family, size = query
    exists = free_multigraph(order, size, family) is not None
    assert exists == (size <= max_size_multigraph(order, family).value)
    if exists and size > 0:
        assert free_multigraph(order, size - 1, family) is not None


def order_2_walk(order, f_size, simple):
    """The order-2 maximum by the decision search, asked for one more edge at a time."""
    pair_cap = min(f_size, 1) if simple else f_size
    value, assign = 0, {}
    while (found := extremal._family_search(order, 2, f_size, min(pair_cap, value + 1), value + 1)) is not None:
        value, assign = value + 1, found
    return extremal.ExtremalResult(value=value, witness=Multigraph(order, assign))


def test_order_2_families_in_closed_form_match_the_walk():
    for order in range(2, 8):
        for f_size in range(5):
            family = ForbiddenFamily(2, f_size)
            assert max_size_multigraph(order, family) == order_2_walk(order, f_size, False)
            assert max_size_simple(order, family) == order_2_walk(order, f_size, True)


def test_witness_edge_limit_reads_the_pair_cap():
    # a simple graph holds one edge per pair whatever the forbid-size
    assert max_size_simple(5, ForbiddenFamily(3, 10**9)).value == 10
    limit = extremal.WITNESS_EDGE_LIMIT
    assert max_size_multigraph(2, ForbiddenFamily(2, limit)).value == limit
    with pytest.raises(EnvelopeExceeded):
        max_size_multigraph(2, ForbiddenFamily(2, limit + 1))


def test_order_2_family_with_a_huge_pair_cap_takes_no_walk():
    # one search per edge took seconds here
    extremal._max_size_family.cache_clear()
    start = time.process_time()
    res = max_size_multigraph(4, ForbiddenFamily(2, 100_000))
    elapsed = time.process_time() - start
    assert res.value == 600_000
    assert res.witness == Multigraph(4, dict.fromkeys(combinations(range(4), 2), 100_000))
    assert elapsed < 1.0
