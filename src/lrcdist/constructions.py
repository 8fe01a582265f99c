"""Named witness-graph builders used by the decision rules.

Every builder returns a Multigraph whose k-density is known (or easily
checkable), so the decider can attach it as an explicit witness that the
distance bound d* is attained.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from .errors import BadArgs, NotGraphic, SelfCheckFailed
from .multigraph import Multigraph
from .params import is_int


@dataclass(frozen=True)
class DegreeSequence:
    """Non-negative integer degrees, stored sorted descending."""

    degrees: tuple[int, ...]

    def __init__(self, degrees):
        ds = tuple(degrees)
        if not all(map(is_int, ds)):
            raise BadArgs(f"degrees must be integers, got {ds!r}")
        ds = tuple(sorted(ds, reverse=True))
        if not ds:
            raise BadArgs("degree sequence must be non-empty")
        if ds[-1] < 0:
            raise BadArgs(f"negative degree in {ds}")
        object.__setattr__(self, "degrees", ds)

    def __len__(self) -> int:
        return len(self.degrees)


def balanced_forest(order: int, components: int) -> Multigraph:
    """Forest of `components` path-shaped trees whose orders differ by at most one.

    Size is always order - components.
    """
    if not 1 <= components <= order:
        raise BadArgs(f"need 1 <= components <= order, got ({order}, {components})")
    base, extra = divmod(order, components)
    edges = []
    start = 0
    # a component of one vertex has no edge; with base 1 only the first extra have one
    for i in range(extra if base == 1 else components):
        length = base + (1 if i < extra else 0)
        for v in range(start, start + length - 1):
            edges.append((v, v + 1))
        start += length
    return Multigraph.from_edges(order, edges)


def cycle_graph(order: int) -> Multigraph:
    """Cycle on `order` vertices; order 2 gives the multigraph 2-cycle (a double edge)."""
    if order < 2:
        raise BadArgs(f"cycle needs order >= 2, got {order}")
    return Multigraph.from_edges(order, [(v, (v + 1) % order) for v in range(order)])


def saturated_pairs(order: int, pair_multiplicity: int) -> Iterator[tuple[tuple[int, int], int]]:
    """Pairs of ``saturated_pair_graph`` with their multiplicities, in descending order."""
    if order < 2:
        raise BadArgs(f"need order >= 2, got {order}")
    if pair_multiplicity < 0:
        raise BadArgs(f"need pair_multiplicity >= 0, got {pair_multiplicity}")
    for u in reversed(range(order)):
        for v in reversed(range(u + 1, order)):
            yield (u, v), pair_multiplicity


def saturated_pair_graph(order: int, pair_multiplicity: int) -> Multigraph:
    """Every unordered vertex pair carries exactly `pair_multiplicity` edges."""
    return Multigraph(order, dict(saturated_pairs(order, pair_multiplicity)))


def turan_pairs(order: int, parts: int) -> Iterator[tuple[tuple[int, int], int]]:
    """Pairs of ``turan_graph`` with their multiplicities, in descending order.

    Parts are consecutive blocks of vertices, so vertex u is joined to every
    vertex after the end of its own block.  The first ``extra`` blocks hold
    base + 1 vertices and the rest base; the last block has no later vertex.
    """
    if not 1 <= parts <= order:
        raise BadArgs(f"need 1 <= parts <= order, got ({order}, {parts})")
    base, extra = divmod(order, parts)
    big = extra * (base + 1)  # the vertices in the larger blocks
    for u in reversed(range(order - base)):
        if u < big:
            end = (u // (base + 1) + 1) * (base + 1)
        else:
            end = big + ((u - big) // base + 1) * base
        for v in reversed(range(end, order)):
            yield (u, v), 1


def turan_graph(order: int, parts: int) -> Multigraph:
    """Complete multipartite graph with part sizes differing by at most one.

    With two parts this is the balanced complete bipartite graph of size
    floor(order^2 / 4); with `parts` parts it is the densest simple graph
    containing no clique on parts + 1 vertices.
    """
    return Multigraph(order, dict(turan_pairs(order, parts)))


def is_graphic(d: DegreeSequence) -> bool:
    """Realizability test for loopless multigraphs: even sum and max <= sum of the rest."""
    total = sum(d.degrees)
    return total % 2 == 0 and d.degrees[0] <= total - d.degrees[0]


def realize(d: DegreeSequence) -> Multigraph:
    """Realize a graphic sequence by repeatedly joining the two largest residual degrees.

    The output degree sequence matches ``d`` exactly (vertex i gets degree
    d.degrees[i]).  Pairing the two current maxima preserves the realizability
    condition at every step, so the greedy loop cannot get stuck; the
    exhaustive round-trip test is the safety net for that argument.
    """
    if not is_graphic(d):
        raise NotGraphic(f"{d.degrees} fails the even-sum/max-degree condition")
    heap = [(-deg, i) for i, deg in enumerate(d.degrees) if deg]
    heapq.heapify(heap)
    edges = []
    while heap:
        neg_u, u = heapq.heappop(heap)
        if not heap:
            raise SelfCheckFailed("greedy pairing lost the realizability invariant")
        neg_v, v = heapq.heappop(heap)
        edges.append((u, v))
        if neg_u + 1:
            heapq.heappush(heap, (neg_u + 1, u))
        if neg_v + 1:
            heapq.heappush(heap, (neg_v + 1, v))
    return Multigraph.from_edges(len(d.degrees), edges)


def almost_regular(order: int, size: int) -> Multigraph:
    """Multigraph of the given order and size whose degrees differ by at most one.

    The degree sequence is 2*size mod order vertices of ceil(2*size/order)
    and the rest at floor(2*size/order).
    """
    if size == 0:
        if order < 1:
            raise BadArgs(f"need order >= 1, got {order}")
        return Multigraph.empty(order)
    if order < 2:
        raise BadArgs(f"need order >= 2 when size > 0, got order {order}")
    if size < 0:
        raise BadArgs(f"need size >= 0, got {size}")
    if 2 * size < order:
        # degrees 1 and 0: ``realize`` pairs the degree-1 vertices in order
        return Multigraph(order, {(v, v + 1): 1 for v in range(0, 2 * size, 2)})
    hi = -(-2 * size // order)
    lo = 2 * size // order
    t = (2 * size) % order
    return realize(DegreeSequence([hi] * t + [lo] * (order - t)))
