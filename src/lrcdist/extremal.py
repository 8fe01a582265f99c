"""Exact extremal-graph oracles.

Three maximum-size questions are answered exactly at desk scale
(order <= 10):

* ``max_size_multigraph``: most edges a loopless multigraph can carry
  with every ``family.order``-subset inducing at most ``family.max_size``
  edges;
* ``max_size_simple``: the same restricted to simple graphs;
* ``max_size_girth``: most edges of a simple graph with no cycle of
  length in [3, k], computed independently of the family machinery so
  the two routes can cross-check each other.

The family questions rest on one decision search for a family-free
graph of a given size, in three steps.  Greedy randomized seeds are
tried first and often reach the size with no search at all; once they
all miss, the most edges any of them reached is kept for the shape, and
a larger size skips them.  Circulants come next: on Z_order every pair
at cyclic distance d gets the same multiplicity, so the induced size of
a subset is a dot product of its distance counts with the
multiplicities, and a capped depth-first walk over the multiplicities
finds an evenly spread witness where the seeds miss.  Last comes
depth-first branch and bound over vertex pairs in lexicographic order:
completed-vertex degrees are forced non-increasing (every graph has a
degree-sorted relabeling, so the restriction is lossless), and upper
bounds prune branches.  The search hands each pair's room, the
multiplicity it can still take, down from node to node; a branch that
places edges lowers the room, in its own copy, only for the later pairs
that share a forbidden subset with the pair just assigned, as no
earlier pair's room is read again, so there is nothing to undo.  The
branch top is the pair's own room, or the edges still missing if fewer.
A maximum size is the last size the search reaches when asked for one
more edge at a time; for an order-2 family, where each pair is a
forbidden subset, it is every pair at the pair cap.

The search bounds a node by the edges that the vertices still to come
can hold among themselves, with caps in closed form: up to
``family.order`` vertices lie in one forbidden subset, and above that
the averaging argument (each edge on m vertices lies in m - 2 of their
(m - 1)-subsets, so m vertices hold at most m / (m - 2) times the cap on
m - 1) extends the cap one vertex at a time.  The same argument caps the
whole graph: a size above that cap is answered without a search.  Every
bound holds for every completion of the partial graph, with or without
sorted degrees, so it cuts only subtrees with nothing at the target,
and the search returns the witness the uncapped DFS would return behind
the seeds and the circulant step.  The pair and subset tables, with
each pair's later pairs, are built once per order and family order.

The girth question needs no search.  The irregular Moore bound caps it
(k >= order, a forest, is its d = 2 end), and the best greedy seed meets
the cap at every order <= 10 and every k, so that seed is the answer; a
seed off the cap fails the self-check.  Both greedy seeds try the same
fixed pair orders, drawn once per number of pairs and cached.

``free_multigraph`` asks the decision search once: is there a
family-free multigraph of the given order and exact size?  It stops at
the first witness, which makes it the cheap path for distance decisions.

``t_bound`` is the closed-form density lower bound obtained by peeling
minimum-degree vertices one at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import comb

from .errors import BadArgs, EnvelopeExceeded, SelfCheckFailed, UnboundedFamily
from .multigraph import ForbiddenFamily, Multigraph
from .params import is_int

SEARCH_ENVELOPE = 10
# most edges of any printed witness, a maximum-size query's or decide's: it is
# listed edge by edge
WITNESS_EDGE_LIMIT = 1_000_000
_SEED_RESTARTS = 60
# most circulant vectors one search looks at; over every family key with
# n1 <= 10 from n <= 200, r <= 30, a hit takes at most 12 and a miss ends
# on its own within 70
_CIRCULANT_CAP = 200
_RNG_SEED = 0x5EED
# a distance no graph of the searched orders reaches: "no path yet"
_FAR = 10**6
# per shape (order, f_order, f_size, pair_cap) whose greedy seeds have all
# missed a target: the most edges any of its seed walks reaches
_seed_reach: dict[tuple[int, int, int, int], int] = {}


@dataclass(frozen=True)
class ExtremalResult:
    value: int
    witness: Multigraph


def _check_envelope(order: int):
    if not is_int(order) or order < 0:
        raise BadArgs(f"order must be an integer >= 0, got {order!r}")
    if order > SEARCH_ENVELOPE:
        raise EnvelopeExceeded(
            f"exhaustive search limited to order <= {SEARCH_ENVELOPE}, got {order}"
        )


@lru_cache(maxsize=None)
def _seed_orders(npairs: int) -> tuple[tuple[int, ...], ...]:
    """The pair orders every greedy seed tries, the same on every call."""
    rng = random.Random(_RNG_SEED)
    orders = []
    for _ in range(_SEED_RESTARTS if npairs else 0):
        perm = list(range(npairs))
        rng.shuffle(perm)
        orders.append(tuple(perm))
    return tuple(orders)


@lru_cache(maxsize=None)
def _incidence(order: int, f_order: int) -> tuple[
    tuple[tuple[int, int], ...],
    tuple[tuple[int, ...], ...],
    tuple[tuple[int, ...], ...],
    tuple[tuple[tuple[int, tuple[int, ...]], ...], ...],
]:
    """Pairs in lexicographic order, the f_order-subsets holding each, the
    pairs of each, and for each pair its later pairs: every subset holding
    it with a pair after it, paired with the pairs after it in that subset."""
    pairs = tuple(combinations(range(order), 2))
    subsets = combinations(range(order), f_order) if f_order >= 2 else ()
    sub_of_pair: list[list[int]] = [[] for _ in pairs]
    pairs_of_sub: list[tuple[int, ...]] = []
    later: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in pairs]
    pair_index = {p: pi for pi, p in enumerate(pairs)}
    for si, s in enumerate(subsets):
        # lexicographic, like the pairs: each pair's later pairs follow it
        in_s = tuple(map(pair_index.__getitem__, combinations(s, 2)))
        pairs_of_sub.append(in_s)
        for pi in in_s:
            sub_of_pair[pi].append(si)
        for t in range(len(in_s) - 1):
            later[in_s[t]].append((si, in_s[t + 1:]))
    return pairs, tuple(map(tuple, sub_of_pair)), tuple(pairs_of_sub), tuple(map(tuple, later))


def _induced_caps(order: int, f_order: int, f_size: int, pair_cap: int) -> list[int]:
    """``cap[m]``: most edges any m vertices of a family-free graph can span.

    Up to f_order vertices lie inside one forbidden subset, which holds at
    most f_size edges.  Above it the averaging argument applies: each edge
    on m vertices lies in m - 2 of their m subsets of m - 1 vertices, so m
    vertices span at most m * cap[m - 1] / (m - 2) edges.  No pair holds
    more than pair_cap.  A family of order below 2 caps no subset, so only
    pair_cap does: m vertices span at most C(m, 2) * pair_cap edges.
    Needs f_order <= order.
    """
    cap = [0] * (order + 1)
    for m in range(2, order + 1):
        if f_order < 2:
            cap[m] = comb(m, 2) * pair_cap
        elif m <= f_order:
            cap[m] = min(f_size, comb(m, 2) * pair_cap)
        else:
            cap[m] = min(cap[m - 1] * m // (m - 2), comb(m, 2) * pair_cap)
    return cap


@lru_cache(maxsize=None)
def _distance_profiles(order: int, f_order: int) -> tuple[tuple[int, ...], ...]:
    """How many pairs of each f_order-subset of Z_order lie at each cyclic distance.

    Entry d - 1 counts distance d = 1..order // 2.  Every subset is a
    rotation of one holding 0, and a profile below another in every entry
    never induces more, so only the maximal profiles are kept.
    """
    profiles = set()
    for rest in combinations(range(1, order), f_order - 1):
        count = [0] * (order // 2)
        for u, v in combinations((0, *rest), 2):
            count[min(v - u, order - v + u) - 1] += 1
        profiles.add(tuple(count))
    return tuple(
        p for p in sorted(profiles)
        if not any(q != p and all(a <= b for a, b in zip(p, q)) for q in profiles)
    )


def _circulant_vectors(order: int, f_order: int, f_size: int, pair_cap: int, target: int):
    """Free circulant multiplicity vectors, depth first, each with its size.

    Vector x gives every pair at cyclic distance d the multiplicity
    x[d - 1].  Distances are fixed from 1 up, each from the most it can
    take down to 0, and each vector is yielded once, when its last
    nonzero entry is set, the zero vector first.  A vector is free iff
    each subset profile's dot product with it is at most f_size; raising
    an entry never makes a vector free, so the most a distance can take
    is read off the profiles and nothing above it is visited.  A prefix
    whose later distances, all at pair_cap, could not lift it to
    ``target`` is not extended.  Each vector is a fresh tuple of
    ``order // 2`` entries, so a caller may keep it.
    """
    half = order // 2
    per_dist = [order if 2 * d < order else half for d in range(1, half + 1)]
    reach = [sum(per_dist[j:]) * pair_cap for j in range(half + 1)]
    profiles = _distance_profiles(order, f_order)

    def extend(prefix: tuple[int, ...], size: int, load: list[int]):
        j = len(prefix)
        if j == half or size + reach[j] < target:
            return
        top = min(
            [pair_cap] + [(f_size - s) // p[j] for p, s in zip(profiles, load) if p[j]]
        )
        for m in range(top, -1, -1):
            x = prefix + (m,)
            if m:
                yield x + (0,) * (half - j - 1), size + m * per_dist[j]
            raised = [s + p[j] * m for p, s in zip(profiles, load)]
            yield from extend(x, size + m * per_dist[j], raised)

    yield (0,) * half, 0
    yield from extend((), 0, [0] * len(profiles))


def _circulant(
    order: int, f_order: int, f_size: int, pair_cap: int, target: int
) -> dict[tuple[int, int], int] | None:
    """The first free circulant that reaches ``target``, cut to ``target`` edges, or None.

    At most ``_CIRCULANT_CAP`` vectors of ``_circulant_vectors`` are
    looked at.  The cut keeps the lexicographically first pairs; removing
    edges keeps a graph free.
    """
    if order < 2 or f_order < 2:
        return None
    vectors = _circulant_vectors(order, f_order, f_size, pair_cap, target)
    for x, size in islice(vectors, _CIRCULANT_CAP):
        if size >= target:
            assign: dict[tuple[int, int], int] = {}
            tot = 0
            for u, v in combinations(range(order), 2):
                m = min(x[min(v - u, order - v + u) - 1], target - tot)
                if m:
                    assign[(u, v)] = m
                    tot += m
            return assign
    return None


def _family_search(
    order: int,
    f_order: int,
    f_size: int,
    pair_cap: int,
    target: int,
) -> dict[tuple[int, int], int] | None:
    """The first family-free assignment of ``target`` edges, or None.

    The greedy seeds are tried first, in ``_seed_orders`` order, and the
    first to reach ``target`` is returned; then the ``_circulant`` step.
    A seed that misses never cut an edge to the target, so its size is
    that of its walk with no target.  Once every seed has missed,
    ``_seed_reach`` keeps the largest such size for the shape (order,
    f_order, f_size, pair_cap), and a later target above it skips the
    seeds, which would all miss again.

    Otherwise the depth-first search returns the first node of size
    ``target``.  A node gets its subset loads, rooms and degrees from its
    parent and changes none of them: a branch placing m > 0 edges on pair
    i works on its own copies, and the m = 0 branch, tried last, passes
    the parent's on.  A branch that reaches the target returns its
    assignment, and each pair on the way back up adds its own edges.  It
    reads rooms only at its own pair and after it, so an edge on pair i
    lowers only the later pairs of each subset holding i, and a subset
    with no pair after i is left alone; the seeds walk the pairs in any
    order and lower every pair of each subset.

    A node at pair (u, v) is cut unless some completion can reach
    ``target``.  Its bounds: u's remaining rooms plus the later pairs,
    which lie among the order - u - 1 later vertices and so hold at most
    the smaller of their rooms and ``cap[order - u - 1]``; and vertices u
    and later, which hold at most ``cap[order - u]`` edges, of which u's
    block has already taken some.  A target above ``cap[order]`` is not
    reached, with no search at all.  Each bound holds for every
    completion of the partial graph, so a cut subtree holds no node at
    the target and the search returns the same assignment as a search
    without the cuts, behind the same seeds and circulant step.
    """
    pairs, sub_of_pair, pairs_of_sub, later = _incidence(order, f_order)
    npairs = len(pairs)
    nsub = len(pairs_of_sub)
    cap = _induced_caps(order, f_order, f_size, pair_cap)
    if cap[order] < target:
        return None
    # room[j]: the multiplicity pair j can still take, min(pair_cap, spare
    # capacity of each subset holding it); it only falls as edges are added,
    # and starts at pair_cap, which callers keep <= f_size wherever subsets exist
    empty_room = [pair_cap] * npairs

    def add(cur: list[int], room: list[int], i: int, m: int):
        for s in sub_of_pair[i]:
            cur[s] += m
            spare = f_size - cur[s]
            for j in pairs_of_sub[s]:
                if room[j] > spare:
                    room[j] = spare

    shape = (order, f_order, f_size, pair_cap)
    reach = _seed_reach.get(shape)
    if reach is None or target <= reach:
        best = 0
        for perm in _seed_orders(npairs):
            cur = [0] * nsub
            room = empty_room.copy()
            tot = 0
            assign: dict[tuple[int, int], int] = {}
            for pi in perm:
                m = min(room[pi], target - tot)
                if m > 0:
                    assign[pairs[pi]] = m
                    tot += m
                    add(cur, room, pi, m)
            if tot == target:
                return assign
            if tot > best:
                best = tot
        _seed_reach[shape] = best
    assign = _circulant(order, f_order, f_size, pair_cap, target)
    if assign is not None:
        return assign

    def dfs(
        i: int, size: int, in_block: int, cur: list[int], room: list[int], deg: list[int]
    ) -> dict[tuple[int, int], int] | None:
        # in_block: the multiplicity already placed in the block of pair i
        if size == target:
            return {}
        if i == npairs:
            return None
        u, v = pairs[i]
        # entering vertex block u at (u, u + 1): degree of u-2 is final,
        # enforce sorted order
        if v == u + 1:
            if u >= 2 and deg[u - 2] < deg[u - 1]:
                return None
            in_block = 0
        if size - in_block + cap[order - u] < target:
            return None
        e = i + order - v  # the first pair of block u + 1
        if size + sum(room[i:e]) + min(sum(room[e:]), cap[order - u - 1]) < target:
            return None
        for m in range(min(room[i], target - size), 0, -1):
            c, r, d = cur.copy(), room.copy(), deg.copy()
            for s, rest in later[i]:
                c[s] += m
                spare = f_size - c[s]
                for j in rest:
                    if r[j] > spare:
                        r[j] = spare
            d[u] += m
            d[v] += m
            found = dfs(i + 1, size + m, in_block + m, c, r, d)
            if found is not None:
                found[pairs[i]] = m
                return found
        return dfs(i + 1, size, in_block, cur, room, deg)

    return dfs(0, 0, 0, [0] * nsub, empty_room, [0] * order)


@lru_cache(maxsize=None)
def _max_size_family(order: int, f_order: int, f_size: int, simple: bool) -> ExtremalResult:
    """The last size the decision search reaches, asking for one more edge at a time.

    The witness is the decision search's for the maximum V: the first
    seed or circulant that reaches V, else the DFS's.  Every assignment
    the DFS builds is family-free, so at V no pair's room exceeds V minus
    the size so far: the DFS for V walks the tree a maximizing DFS would
    walk and returns its first node of size V, which is the witness such
    a search ends with.

    Order-2 families are in closed form: each pair is a forbidden subset,
    so the maximum puts ``pair_cap`` on every pair, which is also the
    graph the walk ends with.

    A query whose averaging cap on the whole graph exceeds
    ``WITNESS_EDGE_LIMIT`` is refused with ``EnvelopeExceeded`` before any
    search; for an order-2 family that cap is the maximum itself.
    """
    pair_cap = min(f_size, 1) if simple else f_size
    cap = _induced_caps(order, f_order, f_size, pair_cap)[order]
    if cap > WITNESS_EDGE_LIMIT:
        raise EnvelopeExceeded(
            f"a witness of up to {cap} edges exceeds the limit of {WITNESS_EDGE_LIMIT} edges"
        )
    if f_order == 2:
        witness = Multigraph(order, dict.fromkeys(combinations(range(order), 2), pair_cap))
        return ExtremalResult(value=witness.size, witness=witness)
    value, assign = 0, {}
    while True:
        found = _family_search(order, f_order, f_size, min(pair_cap, value + 1), value + 1)
        if found is None:
            return ExtremalResult(value=value, witness=Multigraph(order, assign))
        value, assign = value + 1, found


def _validate_family_query(order: int, family: ForbiddenFamily):
    _check_envelope(order)
    if family.order < 2:
        raise UnboundedFamily(
            "single-vertex subgraphs always have size 0; no graph violates the family"
        )
    if family.order > order:
        raise BadArgs(
            f"family order {family.order} exceeds graph order {order}"
        )


def max_size_multigraph(order: int, family: ForbiddenFamily) -> ExtremalResult:
    """Exact maximum size of a family-free multigraph on ``order`` vertices.

    Per-pair multiplicity never exceeds ``family.max_size``: any higher pair
    sits inside some family.order-subset and violates it on its own.
    """
    _validate_family_query(order, family)
    return _max_size_family(order, family.order, family.max_size, False)


def max_size_simple(order: int, family: ForbiddenFamily) -> ExtremalResult:
    """Exact maximum size of a family-free simple graph on ``order`` vertices."""
    _validate_family_query(order, family)
    return _max_size_family(order, family.order, family.max_size, True)


def free_multigraph(order: int, size: int, family: ForbiddenFamily) -> Multigraph | None:
    """A family-free multigraph of exactly this order and size, or None.

    Existence for a given size implies existence for every smaller size
    (edge removal never hurts freeness), so this is equivalent to asking
    whether ``size <= max_size_multigraph(order, family).value``, but it
    runs one decision search instead of one for each size up to the maximum.
    Families of order 1 can never be violated, so any graph of the right
    size works for them.
    """
    _check_envelope(order)
    if not is_int(size) or size < 0:
        raise BadArgs(f"size must be an integer >= 0, got {size!r}")
    f_order, f_size = family.order, family.max_size
    if 2 <= f_order and f_order > order:
        raise BadArgs(f"family order {f_order} exceeds graph order {order}")
    pair_cap = min(f_size, size) if f_order >= 2 else size
    assign = _family_search(order, f_order, f_size, pair_cap, size)
    if assign is None:
        return None
    g = Multigraph(order, assign)
    if g.size != size:
        raise SelfCheckFailed(f"family search reached size {size} but built size {g.size}")
    return g


def _add_edge(dist: list[list[int]], u: int, v: int, k: int):
    """Add edge (u, v) to ``dist`` in place.

    ``dist`` must hold the exact distance wherever that is below k and
    ``_FAR`` elsewhere; it keeps that invariant.  A shortest path that
    uses the new edge runs a..u, v..b (or the reverse) over old shortest
    paths, and it is shorter than k only if both of those are shorter
    than k - 1, so only such pairs (a, b) are relaxed, and only to values
    below k.
    """
    near_u = [(a, d + 1) for a, d in enumerate(dist[u]) if d < k - 1]
    near_v = [(b, d) for b, d in enumerate(dist[v]) if d < k - 1]
    for a, da1 in near_u:
        row_a = dist[a]
        for b, db in near_v:
            t = da1 + db
            if t < k and t < row_a[b]:
                row_a[b] = dist[b][a] = t


def _moore_cap(order: int, k: int) -> int:
    """Most edges the irregular Moore bound allows on ``order`` vertices with girth > k.

    Alon, Hoory and Linial ("The Moore bound for irregular graphs", 2002):
    a graph of average degree d >= 2 and girth g has at least n0(d, g)
    vertices, where n0(d, 2r + 1) = 1 + d * sum_{i<r} (d - 1)^i and
    n0(d, 2r) = 2 * sum_{i<r} (d - 1)^i.  With d = 2e / order the test
    n0 <= order is multiplied through by order^r and checked in integers.
    n0 grows with d, so the cap is the last e from order on that passes.
    At e = order (d = 2) n0 is g itself, so for k >= order the cap is
    order - 1 at once: the graph is a forest.
    """
    if k >= order:
        return max(order - 1, 0)
    g = k + 1
    r = g // 2

    def fits(e: int) -> bool:
        x = 2 * e - order  # order * (d - 1)
        walk = sum(x**i * order ** (r - 1 - i) for i in range(r))  # order^(r-1) * sum (d-1)^i
        if g % 2:
            return order**r + 2 * e * walk <= order ** (r + 1)
        return 2 * order * walk <= order ** (r + 1)

    e = max(order - 1, 0)
    while order and fits(e + 1):
        e += 1
    return e


# typed, so that 9.0 or True misses the entry for 9 or 1 and is rejected
@lru_cache(maxsize=None, typed=True)
def max_size_girth(order: int, k: int) -> ExtremalResult:
    """Exact maximum edges of a simple graph on ``order`` vertices with girth > k.

    Independent of the family oracles.  Each greedy seed walks one of the
    ``_seed_orders`` pair orders and adds every pair that closes no cycle
    of length <= k: adding edge (u, v) closes a cycle of length
    dist(u, v) + 1, so the edge is addable iff dist(u, v) >= k, read from
    a distance matrix that keeps only distances below k.  The best seed is
    the answer when it meets ``_moore_cap``, a proven upper bound; it does
    at every order <= 10 and every k.  A seed above or below the cap fails
    the self-check.
    """
    _check_envelope(order)
    if not is_int(k) or k < 3:
        raise BadArgs(f"need an integer k >= 3, got {k!r}")
    pairs = list(combinations(range(order), 2))
    best: list[tuple[int, int]] = []
    for perm in _seed_orders(len(pairs)):
        dist = [[0 if a == b else _FAR for b in range(order)] for a in range(order)]
        chosen = []
        for pi in perm:
            u, v = pairs[pi]
            if dist[u][v] == _FAR:
                chosen.append((u, v))
                _add_edge(dist, u, v, k)
        if len(chosen) > len(best):
            best = chosen
    cap = _moore_cap(order, k)
    if len(best) != cap:
        side = "above" if len(best) > cap else "below"
        raise SelfCheckFailed(
            f"girth > {k} seed on {order} vertices has {len(best)} edges, {side} the Moore cap {cap}"
        )
    return ExtremalResult(value=cap, witness=Multigraph.from_edges(order, best))


def t_bound(n1: int, n2: int, k1: int) -> int:
    """Density lower bound by peeling a minimum-degree vertex n1 - k1 times.

    Seeded with n2 edges on n1 vertices, one peeling step at order m with
    t edges removes a vertex of degree at most floor(2*t/m), the minimum
    degree.  The result bounds from below the size of some k1-vertex
    subgraph of every multigraph of order n1 and size n2, so a value above
    k2 certifies that no family-free graph exists.
    """
    if not 1 <= k1 <= n1:
        raise BadArgs(f"need 1 <= k1 <= n1, got (n1={n1}, k1={k1})")
    if n2 < 0:
        raise BadArgs(f"need n2 >= 0, got {n2}")
    t = n2
    # a step at order m > 2 * n2 >= 2 * t removes nothing
    for m in range(min(n1, 2 * n2), k1, -1):
        t -= (2 * t) // m
    return t
