"""Bipartite check/variable structures connecting graphs to codes.

A full Tanner graph for (n, k, r) has n variable nodes and n - k check
nodes; every check is either local (degree exactly r + 1) or global
(adjacent to all n variables), and every variable touches at least one
local check.  Such a graph fixes the zero pattern of a parity-check
matrix, and its combinatorial minimum distance (largest d such that
every eta checks, eta in [n-k-d+2, n-k], see at least eta + k variables)
matches the best distance a code with that zero pattern can reach.

Pruned graphs are the reduced object the multigraph equivalence works
through: global checks removed, degree-one variables removed, leaving
h checks of degree <= r + 1, every variable of degree >= 2, and exactly
h(r+1) - (n - m) edges.  ``refine`` normalizes any pruned graph to the
canonical shape (h = n1 checks, m = n2 variables, all of degree two)
without ever lowering the minimum distance; a degree-two variable is
just an edge between two checks, which is where the multigraph appears.
``f2p`` and ``reduce_check_nodes`` end in the same prune: degree-one
variables are dropped and the rest renumbered in order.

``tanner_min_distance`` needs the smallest neighbourhood of every size of
local-check subset; one depth-first walk over those subsets finds them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import AbstractSet, Callable, Sequence

from .errors import (
    EnvelopeExceeded,
    InvalidTanner,
    NothingToReduce,
    SelfCheckFailed,
    ShapeMismatch,
)
from .multigraph import Multigraph
from .params import CodeParams, is_int

CHECK_ENVELOPE = 24

# strategy: given the spare-capacity check indices and the ordinal of the
# fresh variable being attached, return the chosen check index
AttachStrategy = Callable[[list[int], int], int]

BUILTIN_STRATEGIES: dict[str, AttachStrategy] = {
    "first": lambda cands, i: cands[0],
    "last": lambda cands, i: cands[-1],
    "cycle": lambda cands, i: cands[i % len(cands)],
}


@dataclass(frozen=True)
class FullTannerGraph:
    n: int
    k: int
    r: int
    local_checks: tuple[frozenset[int], ...]
    global_count: int

    def __post_init__(self):
        n, k, r = self.n, self.k, self.r
        if not all(map(is_int, (n, k, r, self.global_count, *(v for c in self.local_checks for v in c)))):
            raise InvalidTanner("n, k, r, global_count and variable indices must be integers")
        if not (1 <= r <= k < n):
            raise InvalidTanner(f"bad parameters (n={n}, k={k}, r={r})")
        if self.global_count < 0:
            raise InvalidTanner(f"global_count must be >= 0, got {self.global_count}")
        n1 = -(-n // (r + 1))
        if len(self.local_checks) < n1:
            raise InvalidTanner(
                f"{len(self.local_checks)} local checks, need at least {n1}"
            )
        if len(self.local_checks) + self.global_count != n - k:
            raise InvalidTanner(
                f"{len(self.local_checks)} local + {self.global_count} global checks != n - k = {n - k}"
            )
        covered = set()
        for c in self.local_checks:
            if len(c) != r + 1:
                raise InvalidTanner(f"local check of degree {len(c)}, expected {r + 1}")
            if any(not 0 <= v < n for v in c):
                raise InvalidTanner(f"variable index out of range in {sorted(c)}")
            covered |= c
        if len(covered) != n:
            raise InvalidTanner("some variable is not covered by any local check")

    @property
    def check_count(self) -> int:
        return len(self.local_checks) + self.global_count


@dataclass(frozen=True)
class PrunedGraph:
    n: int
    k: int
    r: int
    m: int
    checks: tuple[frozenset[int], ...]

    def __post_init__(self):
        n, k, r, m = self.n, self.k, self.r, self.m
        if not all(map(is_int, (n, k, r, m, *(v for c in self.checks for v in c)))):
            raise InvalidTanner("n, k, r, m and variable indices must be integers")
        if not (1 <= r <= k < n):
            raise InvalidTanner(f"bad parameters (n={n}, k={k}, r={r})")
        if not 0 <= m <= n:
            raise InvalidTanner(f"variable count m={m} outside [0, {n}]")
        h = len(self.checks)
        n1 = -(-n // (r + 1))
        if not n1 <= h <= n - k:
            raise InvalidTanner(f"check count h={h} outside [{n1}, {n - k}]")
        degree = [0] * m
        edge_count = 0
        for c in self.checks:
            if len(c) > r + 1:
                raise InvalidTanner(f"check of degree {len(c)} > r + 1 = {r + 1}")
            for v in c:
                if not 0 <= v < m:
                    raise InvalidTanner(f"variable index {v} outside 0..{m - 1}")
                degree[v] += 1
            edge_count += len(c)
        if any(d < 2 for d in degree):
            raise InvalidTanner("every variable in a pruned graph must have degree >= 2")
        expected = h * (r + 1) - (n - m)
        if edge_count != expected:
            raise InvalidTanner(f"edge count {edge_count} != h(r+1) - (n - m) = {expected}")

    @property
    def h(self) -> int:
        return len(self.checks)

    @property
    def n1(self) -> int:
        return -(-self.n // (self.r + 1))

    @property
    def n2(self) -> int:
        return self.n1 * (self.r + 1) - self.n


def _variable_degrees(checks: Sequence[AbstractSet[int]]) -> Counter[int]:
    return Counter(v for c in checks for v in c)


def _prune(t: FullTannerGraph | PrunedGraph, checks: Sequence[AbstractSet[int]]) -> PrunedGraph:
    """Keep ``checks``, drop the variables of degree one, renumber the rest in order."""
    degree = _variable_degrees(checks)
    remap = {v: i for i, v in enumerate(sorted(v for v, d in degree.items() if d >= 2))}
    pruned = tuple(frozenset(remap[v] for v in c if v in remap) for c in checks)
    return PrunedGraph(n=t.n, k=t.k, r=t.r, m=len(remap), checks=pruned)


def f2p(t: FullTannerGraph) -> PrunedGraph:
    """Drop global checks, then drop the variables left with degree one."""
    return _prune(t, t.local_checks)


def p2f(p: PrunedGraph, strategy: str | AttachStrategy = "first") -> FullTannerGraph:
    """Rebuild a full Tanner graph: attach fresh degree-one variables until
    every check reaches degree r + 1, then top up with global checks.

    The spare capacity over all checks is exactly n - m, the number of fresh
    variables, so any attachment policy succeeds and every check ends at
    degree exactly r + 1.
    """
    pick = BUILTIN_STRATEGIES[strategy] if isinstance(strategy, str) else strategy
    checks = [set(c) for c in p.checks]
    for i, v in enumerate(range(p.m, p.n)):
        candidates = [ci for ci, c in enumerate(checks) if len(c) < p.r + 1]
        chosen = pick(candidates, i)
        if chosen not in candidates:
            raise InvalidTanner(f"strategy chose check {chosen} without spare capacity")
        checks[chosen].add(v)
    return FullTannerGraph(
        n=p.n,
        k=p.k,
        r=p.r,
        local_checks=tuple(frozenset(c) for c in checks),
        global_count=(p.n - p.k) - p.h,
    )


def _local_min_neighborhoods(masks: list[int]) -> list[int]:
    """Minimum |N(S)| over all-local subsets S, indexed by subset size.

    One depth-first walk over the subsets in lexicographic order, carrying
    the running union of the chosen checks' variable masks: O(L) memory for
    L local checks.
    """
    count = len(masks)
    mins = [0] + [reduce(or_, masks, 0).bit_count()] * count  # no union is larger

    def walk(start: int, union: int, eta: int) -> None:
        for i in range(start, count):
            u = union | masks[i]
            size = u.bit_count()
            if size < mins[eta]:
                mins[eta] = size
            if i + 1 < count:
                walk(i + 1, u, eta + 1)

    walk(0, 0, 1)
    return mins


def tanner_min_distance(t: FullTannerGraph) -> int:
    """Largest d in [1, n - k] such that every eta checks, for every eta in
    [n - k - d + 2, n - k], are adjacent to at least eta + k variables.

    Any subset containing a global check sees all n variables, so only
    all-local subsets can fail; those are enumerated exhaustively.
    """
    n, k = t.n, t.k
    if n - k > CHECK_ENVELOPE:
        raise EnvelopeExceeded(f"check-subset enumeration limited to n - k <= {CHECK_ENVELOPE}")
    masks = [sum(1 << v for v in c) for c in t.local_checks]
    mins = _local_min_neighborhoods(masks)
    worst_failing = 0
    for eta in range(1, len(masks) + 1):
        if mins[eta] < eta + k:
            worst_failing = eta
    return (n - k) - worst_failing + 1 if worst_failing else n - k


def reduce_check_nodes(p: PrunedGraph) -> PrunedGraph:
    """Remove one check node while keeping the pruned-graph invariants.

    The minimum-degree check is removed; then r + 1 - l edges are stripped
    from currently-highest-degree variables (always possible, by the edge
    identity); then variables left at degree one are dropped.  The Tanner
    minimum distance never decreases.
    """
    if p.h <= p.n1:
        raise NothingToReduce(f"already at the minimum of {p.n1} checks")
    checks = [set(c) for c in p.checks]
    victim = min(range(len(checks)), key=lambda i: (len(checks[i]), i))
    removed_degree = len(checks[victim])
    del checks[victim]
    for _ in range((p.r + 1) - removed_degree):
        degrees = _variable_degrees(checks)
        candidates = [v for v, d in degrees.items() if d >= 2]
        if not candidates:
            raise SelfCheckFailed("no variable of degree >= 2 left; the edge identity failed")
        v = max(candidates, key=lambda x: (degrees[x], -x))
        hosts = [ci for ci, c in enumerate(checks) if v in c]
        host = max(hosts, key=lambda ci: (len(checks[ci]), -ci))
        checks[host].discard(v)
    return _prune(p, checks)


def refine(p: PrunedGraph) -> PrunedGraph:
    """Normalize to h = n1 checks, m = n2 variables, every variable degree two.

    Applies check-node reduction until h = n1, then splits high-degree
    variables: a fresh variable joined to two of the host's checks replaces
    one of the host's edges.  Neither step lowers the minimum distance.
    """
    while p.h > p.n1:
        p = reduce_check_nodes(p)
    checks = [set(c) for c in p.checks]
    m = p.m
    while True:
        degrees = _variable_degrees(checks)
        high = [v for v, d in degrees.items() if d > 2]
        if not high:
            break
        v = min(high, key=lambda x: (-degrees[x], x))
        c1, c2 = sorted(ci for ci, c in enumerate(checks) if v in c)[:2]
        fresh = m
        m += 1
        checks[c1].add(fresh)
        checks[c2].add(fresh)
        checks[c2].discard(v)
    out = PrunedGraph(
        n=p.n, k=p.k, r=p.r, m=m, checks=tuple(frozenset(c) for c in checks)
    )
    if out.m != p.n2:
        raise SelfCheckFailed(f"refined pruned graph has {out.m} variables, not n2 = {p.n2}")
    return out


def graph_to_pruned(g: Multigraph, p: CodeParams) -> PrunedGraph:
    """Vertices become check nodes; each edge becomes a degree-two variable."""
    if g.order != p.n1 or g.size != p.n2:
        raise ShapeMismatch(
            f"need order n1={p.n1} and size n2={p.n2}, got order {g.order} size {g.size}"
        )
    checks: list[set[int]] = [set() for _ in range(p.n1)]
    var = 0
    for (u, v), mult in g.pair_multiplicities():
        for _ in range(mult):
            checks[u].add(var)
            checks[v].add(var)
            var += 1
    return PrunedGraph(
        n=p.n, k=p.k, r=p.r, m=p.n2, checks=tuple(frozenset(c) for c in checks)
    )
