"""Named witness-graph builders used by the decision rules.

Every builder gives a witness whose k-density is known (or easily
checkable), so the decider can attach it as an explicit witness that the
distance bound d* is attained.  Most return a Multigraph;
``saturated_pairs`` and ``turan_pairs`` yield its pairs, in descending
order, which ``decider._take`` cuts to the size it needs.  ``realize``,
the greedy pairing of a graphic ``DegreeSequence``, has no caller here:
it is the tests' reference for the pairs that ``almost_regular`` lists
in closed form.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import cycle, islice
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


def balanced_forest(order: int, components: int) -> Multigraph:
    """Forest of `components` path-shaped trees whose orders differ by at most one.

    Size is always order - components.
    """
    if not (is_int(order) and is_int(components) and 1 <= components <= order):
        raise BadArgs(f"need integers 1 <= components <= order, got ({order!r}, {components!r})")
    base, extra = divmod(order, components)
    pairs = []
    start = 0
    # a component of one vertex has no edge; with base 1 only the first extra have one
    for i in range(extra if base == 1 else components):
        length = base + (1 if i < extra else 0)
        for v in range(start, start + length - 1):
            pairs.append(((v, v + 1), 1))
        start += length
    return Multigraph._of_pairs(order, pairs)


def cycle_graph(order: int) -> Multigraph:
    """Cycle on `order` vertices; order 2 gives the multigraph 2-cycle (a double edge)."""
    if not is_int(order) or order < 2:
        raise BadArgs(f"cycle needs an integer order >= 2, got {order!r}")
    if order == 2:
        return Multigraph._of_pairs(2, [((0, 1), 2)])
    # in lexicographic order: the closing pair (0, order - 1) comes second
    pairs = [((0, 1), 1), ((0, order - 1), 1), *(((v, v + 1), 1) for v in range(1, order - 1))]
    return Multigraph._of_pairs(order, pairs)


def saturated_pairs(order: int, pair_multiplicity: int) -> Iterator[tuple[tuple[int, int], int]]:
    """Pairs of ``saturated_pair_graph`` with their multiplicities, in descending order."""
    if not is_int(order) or order < 2:
        raise BadArgs(f"need an integer order >= 2, got {order!r}")
    if not is_int(pair_multiplicity) or pair_multiplicity < 0:
        raise BadArgs(f"need an integer pair_multiplicity >= 0, got {pair_multiplicity!r}")
    for u in reversed(range(order)):
        for v in reversed(range(u + 1, order)):
            yield (u, v), pair_multiplicity


def saturated_pair_graph(order: int, pair_multiplicity: int) -> Multigraph:
    """Every unordered vertex pair carries exactly `pair_multiplicity` edges."""
    return Multigraph._of_pairs(order, saturated_pairs(order, pair_multiplicity))


def turan_pairs(order: int, parts: int) -> Iterator[tuple[tuple[int, int], int]]:
    """Pairs of ``turan_graph`` with their multiplicities, in descending order.

    Parts are consecutive blocks of vertices, so vertex u is joined to every
    vertex after the end of its own block.  The first ``extra`` blocks hold
    base + 1 vertices and the rest base; the last block has no later vertex.
    """
    if not (is_int(order) and is_int(parts) and 1 <= parts <= order):
        raise BadArgs(f"need integers 1 <= parts <= order, got ({order!r}, {parts!r})")
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
    return Multigraph._of_pairs(order, turan_pairs(order, parts))


def is_graphic(d: DegreeSequence) -> bool:
    """Realizability test for loopless multigraphs: even sum and max <= sum of the rest."""
    total = sum(d.degrees)
    return total % 2 == 0 and d.degrees[0] <= total - d.degrees[0]


def realize(d: DegreeSequence) -> Multigraph:
    """Realize a graphic sequence by repeatedly joining the two largest residual degrees.

    Vertex i gets degree d.degrees[i].  Pairing the two current maxima keeps
    the realizability condition, so the greedy loop cannot get stuck.  No
    caller in the package: the tests check ``almost_regular`` against it.
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

    With 2*size = lo*order + t, the edge ends are listed in lap order:
    vertices 0..t-1 once, then lo laps over 0..order-1, so vertex v gets
    lo + (v < t) ends; they are joined two by two in that order.  Two equal
    ends would meet only where the prefix's 0 runs into the first lap's 0
    (t = 1), so that lap starts 1, 0 instead, and no pair is a loop.  The
    pairs are those of ``realize``'s greedy pairing of the same degrees.

    Only the head, the prefix and the first lap (and the next lap's 0 when
    they end mid-pair), and the tail are paired end by end.  Past the head
    the ends repeat every two laps, so the whole two-lap blocks in between
    are one block's pairs times their number, and the tail is the next
    block's first ends: O(order) work whatever the size.
    """
    if not (is_int(order) and is_int(size)) or size < 0 or order < 1 + (size > 0):
        raise BadArgs(f"need integer size >= 0 and order >= 2 (1 when size is 0), got ({order!r}, {size!r})")
    lo, t = divmod(2 * size, order)
    head = t + order + (t + order) % 2 if lo else t
    whole, tail = divmod(2 * size - head, 2 * order)
    ends = [*range(t), *islice(cycle(range(order)), head + tail - t)]
    if t == 1:
        ends[1:3] = 1, 0
    ends = iter(ends)  # two by two; the list is freed once read
    pairs = Counter(zip(ends, ends))
    if whole:  # a block starts where the head ends, head - t ends into the laps
        block = islice(cycle(range(order)), head - t, head - t + 2 * order)
        for pair, m in Counter(zip(block, block)).items():
            pairs[pair] += m * whole
    # a lap's wrap and the prefix's end give pairs with u > v
    for u, v in [pair for pair in pairs if pair[0] > pair[1]]:
        pairs[v, u] += pairs.pop((u, v))
    return Multigraph._of_pairs(order, pairs.items())
