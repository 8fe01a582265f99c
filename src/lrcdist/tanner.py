"""Bipartite check/variable structures connecting graphs to codes.

A full Tanner graph for (n, k, r) has n variable nodes and n - k check
nodes; every check is either local (degree exactly r + 1) or global
(adjacent to all n variables), and every variable touches at least one
local check.  Such a graph fixes the zero pattern of a parity-check
matrix, and its combinatorial minimum distance (largest d in
[1, n-k+1] such that every eta checks, eta in [n-k-d+2, n-k], see at
least eta + k variables; n-k+1 when no set of checks sees fewer)
matches the best distance a code with that zero pattern can reach.
Both graph types carry the ``CodeParams`` of ``derive_params(n, k, r)``
and refuse any other: the global checks are the n - k - len(local_checks)
checks left over, and n1 and n2 are read from the params, never recomputed.

Pruned graphs are the reduced object the multigraph equivalence works
through: global checks removed, degree-one variables removed, leaving
h checks of degree <= r + 1, every variable of degree >= 2, and exactly
h(r+1) - (n - m) edges.  ``refine`` normalizes any pruned graph to the
canonical shape (h = n1 checks, m = n2 variables, all of degree two)
without ever lowering the minimum distance; a degree-two variable is
just an edge between two checks, which is where the multigraph appears.
``f2p`` and ``reduce_check_nodes`` end in the same prune: degree-one
variables are dropped and the rest renumbered in order.  ``p2f`` goes
back: it fills the checks in order, each taking the next fresh degree-one
variables until it has r + 1.  The checks have exactly n - m free slots
between them, one for each fresh variable, so every way of attaching them
fills every check and differs from this one only in which fresh label sits
in which slot: a relabelling, which keeps every neighbourhood size.

``tanner_min_distance`` needs the largest set of local checks that sees
fewer variables than its size plus k.  ``failing_checks`` is the one
depth-first walk over check bitmasks that finds it, and
``codec.min_distance`` runs the same walk over the rows of H.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import AbstractSet, Sequence

from .errors import (
    EnvelopeExceeded,
    InvalidTanner,
    NothingToReduce,
    SelfCheckFailed,
    ShapeMismatch,
)
from .multigraph import Multigraph
from .params import CodeParams, is_derived, is_int

CHECK_ENVELOPE = 24


def _check_params(params: CodeParams) -> None:
    """Refuse a ``params`` that is not ``derive_params(n, k, r)``.
    ``derive_params`` admits exactly the (n, k, r) that have a Tanner graph,
    since n1 <= n - k exactly when n - k >= ceil(k / r)."""
    if not is_derived(params):
        raise InvalidTanner(f"params must be derive_params(n, k, r), got {params!r}")


@dataclass(frozen=True)
class FullTannerGraph:
    params: CodeParams
    local_checks: tuple[frozenset[int], ...]

    def __post_init__(self):
        _check_params(self.params)
        n, k, r, n1 = self.params.n, self.params.k, self.params.r, self.params.n1
        if not all(is_int(v) for c in self.local_checks for v in c):
            raise InvalidTanner("variable indices must be integers")
        if not n1 <= len(self.local_checks) <= n - k:
            raise InvalidTanner(f"{len(self.local_checks)} local checks outside [{n1}, {n - k}]")
        covered = set()
        for c in self.local_checks:
            if len(c) != r + 1:
                raise InvalidTanner(f"local check of degree {len(c)}, expected {r + 1}")
            if any(not 0 <= v < n for v in c):
                raise InvalidTanner(f"variable index out of range in {sorted(c)}")
            covered |= c
        if len(covered) != n:
            raise InvalidTanner("some variable is not covered by any local check")


@dataclass(frozen=True)
class PrunedGraph:
    params: CodeParams
    m: int
    checks: tuple[frozenset[int], ...]

    def __post_init__(self):
        _check_params(self.params)
        n, k, r, n1, m = self.params.n, self.params.k, self.params.r, self.params.n1, self.m
        if not all(map(is_int, (m, *(v for c in self.checks for v in c)))):
            raise InvalidTanner("m and variable indices must be integers")
        if not 0 <= m <= n:
            raise InvalidTanner(f"variable count m={m} outside [0, {n}]")
        h = len(self.checks)
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


def _variable_degrees(checks: Sequence[AbstractSet[int]]) -> Counter[int]:
    return Counter(v for c in checks for v in c)


def _prune(t: FullTannerGraph | PrunedGraph, checks: Sequence[AbstractSet[int]]) -> PrunedGraph:
    """Keep ``checks``, drop the variables of degree one, renumber the rest in order."""
    degree = _variable_degrees(checks)
    remap = {v: i for i, v in enumerate(sorted(v for v, d in degree.items() if d >= 2))}
    pruned = tuple(frozenset(remap[v] for v in c if v in remap) for c in checks)
    return PrunedGraph(t.params, len(remap), pruned)


def f2p(t: FullTannerGraph) -> PrunedGraph:
    """Drop global checks, then drop the variables left with degree one."""
    return _prune(t, t.local_checks)


def p2f(p: PrunedGraph) -> FullTannerGraph:
    """Rebuild a full Tanner graph: fill the checks in order with fresh
    degree-one variables m, m + 1, ... until each has degree r + 1, then top
    up with global checks.

    The spare capacity over all checks is exactly n - m, the number of fresh
    variables, so every check ends at degree exactly r + 1 and any other
    attachment only relabels the fresh variables, which changes no
    neighbourhood size and so no distance.
    """
    fresh = iter(range(p.m, p.params.n))
    slots = p.params.r + 1
    return FullTannerGraph(p.params, tuple(frozenset(chain(c, islice(fresh, slots - len(c)))) for c in p.checks))


def failing_checks(masks: Sequence[int], k: int) -> tuple[int, ...] | None:
    """Indices of a largest nonempty set S of masks whose union has fewer
    than |S| + k bits, or None when there is no such set.

    One depth-first walk adds the masks in order, carrying the running union.
    A branch is cut once it cannot beat the largest set found so far, or
    once its union size minus its masks minus the masks still to come
    reaches k: each mask still to come lowers union size minus masks by one
    at most.
    """
    count = len(masks)
    chosen = [0] * count
    best: tuple[int, ...] | None = None
    need = 1  # the size a set must reach to be the answer

    def walk(start: int, union: int, eta: int) -> None:
        nonlocal best, need
        if eta >= need and union.bit_count() < eta + k:
            best = tuple(chosen[:eta])
            need = eta + 1
        for i in range(start, count):
            left = count - i - 1
            if eta + 1 + left < need:
                return
            u = union | masks[i]
            if u.bit_count() - eta - 1 - left < k:
                chosen[eta] = i
                walk(i + 1, u, eta + 1)

    walk(0, 0, 0)
    return best


def tanner_min_distance(t: FullTannerGraph) -> int:
    """Largest d in [1, n - k + 1] such that every eta checks, for every eta
    in [n - k - d + 2, n - k], are adjacent to at least eta + k variables:
    (n - k) + 1 minus the size of the largest failing set of checks.

    Any set containing a global check sees all n variables, so only
    all-local sets can fail; ``failing_checks`` finds the largest.
    """
    n, k = t.params.n, t.params.k
    if n - k > CHECK_ENVELOPE:
        raise EnvelopeExceeded(f"check-subset enumeration limited to n - k <= {CHECK_ENVELOPE}")
    failing = failing_checks([sum(1 << v for v in c) for c in t.local_checks], k)
    return (n - k) + 1 - len(failing or ())


def reduce_check_nodes(p: PrunedGraph) -> PrunedGraph:
    """Remove one check node while keeping the pruned-graph invariants.

    The minimum-degree check is removed; then r + 1 - l edges are stripped
    from currently-highest-degree variables (always possible, by the edge
    identity); then variables left at degree one are dropped.  The Tanner
    minimum distance never decreases.
    """
    if p.h <= p.params.n1:
        raise NothingToReduce(f"already at the minimum of {p.params.n1} checks")
    checks = [set(c) for c in p.checks]
    victim = min(range(len(checks)), key=lambda i: (len(checks[i]), i))
    removed_degree = len(checks[victim])
    del checks[victim]
    for _ in range((p.params.r + 1) - removed_degree):
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
    while p.h > p.params.n1:
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
    if m != p.params.n2:
        raise SelfCheckFailed(f"refined pruned graph has {m} variables, not n2 = {p.params.n2}")
    return PrunedGraph(p.params, m, tuple(frozenset(c) for c in checks))


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
    return PrunedGraph(p, p.n2, tuple(frozenset(c) for c in checks))
