"""Exact brute-force extremal-graph oracles.

Three maximum-size questions are answered exhaustively at desk scale
(order <= 10):

* ``max_size_multigraph``: most edges a loopless multigraph can carry
  with every ``family.order``-subset inducing at most ``family.max_size``
  edges;
* ``max_size_simple``: the same restricted to simple graphs;
* ``max_size_girth``: most edges of a simple graph with no cycle of
  length in [3, k], computed independently of the family machinery so
  the two routes can cross-check each other.

All searches are depth-first branch and bound over vertex pairs in
lexicographic order.  Three devices keep them exact but fast: a greedy
randomized seed supplies a strong initial lower bound, completed-vertex
degrees are forced non-increasing (every graph has a degree-sorted
relabeling, so the restriction is lossless), and two upper bounds prune
branches (a capacity-averaging bound over the forbidden subsets, and a
per-pair residual bound).

``free_multigraph`` answers the decision form directly: is there a
family-free multigraph of the given order and exact size?  It stops at
the first witness, which makes it the cheap path for distance decisions.

``t_bound`` is the closed-form density lower bound obtained by peeling
minimum-degree vertices one at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import BadArgs, EnvelopeExceeded, SelfCheckFailed, UnboundedFamily
from .multigraph import ForbiddenFamily, Multigraph

SEARCH_ENVELOPE = 10
_SEED_RESTARTS = 60
_RNG_SEED = 0x5EED


@dataclass(frozen=True)
class ExtremalResult:
    value: int
    witness: Multigraph
    exhaustive: bool


def _check_envelope(order: int):
    if order > SEARCH_ENVELOPE:
        raise EnvelopeExceeded(
            f"exhaustive search limited to order <= {SEARCH_ENVELOPE}, got {order}"
        )
    if order < 0:
        raise BadArgs(f"order must be >= 0, got {order}")


def _family_search(
    order: int,
    f_order: int,
    f_size: int,
    pair_cap: int,
    target: int | None,
) -> tuple[int, dict[tuple[int, int], int], bool]:
    """Core maximizer.  Returns (best size, best assignment, target reached)."""
    pairs = list(combinations(range(order), 2))
    npairs = len(pairs)
    subsets = list(combinations(range(order), f_order)) if f_order >= 2 else []
    nsub = len(subsets)
    sub_of_pair: list[list[int]] = [[] for _ in range(npairs)]
    for si, s in enumerate(subsets):
        inside = set(s)
        for pi, (u, v) in enumerate(pairs):
            if u in inside and v in inside:
                sub_of_pair[pi].append(si)
    per_pair_subs = comb(order - 2, f_order - 2) if f_order >= 2 and order >= 2 else 0

    # greedy randomized seed: a strong initial bound makes the pruning bite
    rng = random.Random(_RNG_SEED)
    best = 0
    best_assign: dict[tuple[int, int], int] = {}
    for _ in range(_SEED_RESTARTS if npairs else 0):
        perm = list(range(npairs))
        rng.shuffle(perm)
        cur = [0] * nsub
        tot = 0
        assign: dict[tuple[int, int], int] = {}
        for pi in perm:
            room = min((f_size - cur[s] for s in sub_of_pair[pi]), default=pair_cap)
            m = min(pair_cap, room)
            if target is not None:
                m = min(m, target - tot)
            if m > 0:
                assign[pairs[pi]] = m
                tot += m
                for s in sub_of_pair[pi]:
                    cur[s] += m
        if tot > best:
            best = tot
            best_assign = assign
    if target is not None and best >= target:
        return best, best_assign, True

    cur = [0] * nsub
    deg = [0] * order
    assign_vec = [0] * npairs
    state = {"best": best, "assign": best_assign, "done": False}
    residual_start = nsub * f_size

    def pairwise_ub(i: int, size: int) -> int:
        ub = size
        for j in range(i, npairs):
            room = min((f_size - cur[s] for s in sub_of_pair[j]), default=pair_cap)
            ub += min(pair_cap, room) if room > 0 else 0
        return ub

    def dfs(i: int, size: int, residual: int):
        if size > state["best"]:
            state["best"] = size
            state["assign"] = {
                pairs[j]: assign_vec[j] for j in range(npairs) if assign_vec[j]
            }
            if target is not None and size >= target:
                state["done"] = True
                return
        if i == npairs:
            return
        u, v = pairs[i]
        # entering vertex block u at (u, u + 1): degree of u-2 is final,
        # enforce sorted order
        if v == u + 1 and u >= 2 and deg[u - 2] < deg[u - 1]:
            return
        # a branch is useless unless it can beat `best` (max mode) or reach
        # `target` (decision mode)
        floor_needed = state["best"] if target is None else target - 1
        if per_pair_subs:
            if size + residual // per_pair_subs <= floor_needed:
                return
        if size + (npairs - i) * pair_cap <= floor_needed:
            return
        if pairwise_ub(i, size) <= floor_needed:
            return
        room = min((f_size - cur[s] for s in sub_of_pair[i]), default=pair_cap)
        top = min(pair_cap, room)
        if target is not None:
            top = min(top, target - size)
        for m in range(max(top, 0), -1, -1):
            if m:
                for s in sub_of_pair[i]:
                    cur[s] += m
                deg[u] += m
                deg[v] += m
            assign_vec[i] = m
            dfs(i + 1, size + m, residual - m * len(sub_of_pair[i]))
            assign_vec[i] = 0
            if m:
                for s in sub_of_pair[i]:
                    cur[s] -= m
                deg[u] -= m
                deg[v] -= m
            if state["done"]:
                return

    dfs(0, 0, residual_start)
    reached = target is not None and state["best"] >= target
    return state["best"], state["assign"], reached


@lru_cache(maxsize=None)
def _max_size_family(order: int, f_order: int, f_size: int, simple: bool) -> ExtremalResult:
    pair_cap = min(f_size, 1) if simple else f_size
    value, assign, _ = _family_search(order, f_order, f_size, pair_cap, None)
    return ExtremalResult(value=value, witness=Multigraph(order, assign), exhaustive=True)


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


@lru_cache(maxsize=None)
def _free_multigraph(order: int, size: int, f_order: int, f_size: int) -> Multigraph | None:
    if order < 2:
        return Multigraph.empty(order) if size == 0 else None
    pair_cap = min(f_size, size) if f_order >= 2 else size
    value, assign, reached = _family_search(order, f_order, f_size, pair_cap, size)
    if not reached:
        return None
    g = Multigraph(order, assign)
    if g.size != size:
        raise SelfCheckFailed(f"family search reached size {size} but built size {g.size}")
    return g


def free_multigraph(order: int, size: int, family: ForbiddenFamily) -> Multigraph | None:
    """A family-free multigraph of exactly this order and size, or None.

    Existence for a given size implies existence for every smaller size
    (edge removal never hurts freeness), so this is equivalent to asking
    whether ``size <= max_size_multigraph(order, family).value``, but it
    terminates at the first witness instead of completing the maximum.
    Families of order 1 can never be violated, so any graph of the right
    size works for them.
    """
    _check_envelope(order)
    if size < 0:
        raise BadArgs(f"size must be >= 0, got {size}")
    if 2 <= family.order and family.order > order:
        raise BadArgs(f"family order {family.order} exceeds graph order {order}")
    return _free_multigraph(order, size, family.order, family.max_size)


@lru_cache(maxsize=None)
def max_size_girth(order: int, k: int) -> ExtremalResult:
    """Exact maximum edges of a simple graph on ``order`` vertices with girth > k.

    Independent of the family oracles: feasibility is tracked with an
    incrementally maintained distance matrix (adding edge (u, v) closes a
    cycle of length dist(u, v) + 1, so the edge is addable iff
    dist(u, v) >= k).
    """
    _check_envelope(order)
    if k < 3:
        raise BadArgs(f"need k >= 3, got {k}")
    pairs = list(combinations(range(order), 2))
    npairs = len(pairs)
    infinity = 10 ** 6

    def push_edge(dist: list[list[int]], u: int, v: int) -> list[list[int]]:
        nd = [row.copy() for row in dist]
        for a in range(order):
            da_u, da_v = nd[a][u], nd[a][v]
            row_a = nd[a]
            row_u, row_v = nd[u], nd[v]
            for b in range(order):
                t = da_u + 1 + row_v[b]
                if t < row_a[b]:
                    row_a[b] = t
                t = da_v + 1 + row_u[b]
                if t < row_a[b]:
                    row_a[b] = t
        return nd

    rng = random.Random(_RNG_SEED)
    best = 0
    best_edges: list[tuple[int, int]] = []
    for _ in range(_SEED_RESTARTS if npairs else 0):
        perm = list(range(npairs))
        rng.shuffle(perm)
        dist = [[0 if a == b else infinity for b in range(order)] for a in range(order)]
        chosen = []
        for pi in perm:
            u, v = pairs[pi]
            if dist[u][v] >= k:
                chosen.append((u, v))
                dist = push_edge(dist, u, v)
        if len(chosen) > best:
            best = len(chosen)
            best_edges = chosen

    state = {"best": best, "edges": best_edges}
    edges: list[tuple[int, int]] = []
    deg = [0] * order

    def dfs(i: int, size: int, dist: list[list[int]]):
        if size > state["best"]:
            state["best"] = size
            state["edges"] = edges.copy()
        if i == npairs:
            return
        u, v = pairs[i]
        if v == u + 1 and u >= 2 and deg[u - 2] < deg[u - 1]:
            return
        addable = 0
        for j in range(i, npairs):
            a, b = pairs[j]
            if dist[a][b] >= k:
                addable += 1
        if size + addable <= state["best"]:
            return
        if dist[u][v] >= k:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
            dfs(i + 1, size + 1, push_edge(dist, u, v))
            deg[u] -= 1
            deg[v] -= 1
            edges.pop()
        dfs(i + 1, size, dist)

    dist0 = [[0 if a == b else infinity for b in range(order)] for a in range(order)]
    dfs(0, 0, dist0)
    witness = Multigraph.from_edges(order, state["edges"])
    return ExtremalResult(value=state["best"], witness=witness, exhaustive=True)


def t_bound(n1: int, n2: int, k1: int, variant: str = "ceil") -> int:
    """Density lower bound by peeling a minimum-degree vertex n1 - k1 times.

    Seeded with n2 edges on n1 vertices, one peeling step at order m removes
    at most ceil(2*t/m) edges (the floor variant uses the sharper floor
    estimate of the minimum degree).  The result bounds from below the size
    of some k1-vertex subgraph of every multigraph of order n1 and size n2,
    so a value above k2 certifies that no family-free graph exists.
    """
    if not 1 <= k1 <= n1:
        raise BadArgs(f"need 1 <= k1 <= n1, got (n1={n1}, k1={k1})")
    if n2 < 0:
        raise BadArgs(f"need n2 >= 0, got {n2}")
    if variant not in ("ceil", "floor"):
        raise BadArgs(f"variant must be 'ceil' or 'floor', got {variant!r}")
    t = n2
    for m in range(n1, k1, -1):
        if variant == "floor":
            t -= (2 * t) // m
        else:
            t -= -((-2 * t) // m)
    return t
