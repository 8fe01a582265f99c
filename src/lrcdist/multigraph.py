"""Loopless multigraphs with exact induced-subgraph size queries.

The central predicate of the whole package lives here: a multigraph is
"(k, s)-family-free" when no k of its vertices induce more than s edges
(counted with multiplicity).  The best code distance for parameters
(n, k, r) equals the bound d* exactly when a family-free multigraph of
order n1 and size n2 exists for the family (k1, k2).

Graphs are immutable and hold only their nonzero pairs (u < v) with
their multiplicities, in lexicographic order.  The constructions and
searches produce that form and every reader walks it, and it keeps a
witness of n2 edges on n1 vertices at O(n2) memory however large n1 is.  The density
kernels, which index pairs, build a dense matrix for their own walk.

One kernel, ``_densest``, answers the k-subset density queries.  Three
cases have closed forms.  For k = 1 the density is 0, as there are no
loops, and for k = 2 it is the largest pair multiplicity.  A simple
forest (a graph with fewer edges than vertices is tested for one by a
union-find over the vertices on its pairs) has k-density k - j, where
j is the fewest components, largest first, whose orders add up to at
least k: a k-set S spans |S| minus the number of components it meets, and
a tree has subtrees of every smaller order.  Every other query takes a
depth-first walk over the k-subsets (over their complements when k
exceeds half the order) that carries, for every remaining vertex, its
edge count into the vertices chosen so far, so the last vertex of a
subset is a single ``max``.  The walk holds its own envelope: past
``SUBSET_BUDGET`` subsets it raises ``EnvelopeExceeded`` instead of
starting.  ``k_density`` runs the kernel to the end.  ``is_family_free``
settles a graph whose whole size is within the bound without looking at
any subset, and otherwise stops the walk at the first violating subset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from math import comb
from operator import index
from typing import ItemsView, Iterable, Mapping

from .errors import BadArgs, BadK, EnvelopeExceeded, UnknownVertex
from .params import is_int

SUBSET_BUDGET = 20_000  # most k-subsets the density walk enumerates
# the least j with C(2j, j) > SUBSET_BUDGET
_BUDGET_SIDE = next(j for j in count(1) if comb(2 * j, j) > SUBSET_BUDGET)


def _vertex(v) -> int:
    """``operator.index`` that refuses a bool: True is not the vertex 1."""
    if isinstance(v, bool):
        raise TypeError(f"vertex must be an integer, got {v!r}")
    return index(v)


@dataclass(frozen=True)
class ForbiddenFamily:
    """All multigraphs of a fixed order with size strictly above ``max_size``."""

    order: int
    max_size: int

    def __post_init__(self):
        if not is_int(self.order) or self.order < 1:
            raise BadArgs(f"family order must be an integer >= 1, got {self.order!r}")
        if not is_int(self.max_size) or self.max_size < 0:
            raise BadArgs(f"family max_size must be an integer >= 0, got {self.max_size!r}")


class Multigraph:
    """Immutable loopless multigraph on vertices 0..order-1."""

    __slots__ = ("order", "_pairs", "_size")

    def __init__(self, order: int, multiplicities: Mapping[tuple[int, int], int] | None = None):
        if not is_int(order) or order < 0:
            raise BadArgs(f"order must be an integer >= 0, got {order!r}")
        folded: dict[tuple[int, int], int] = {}
        for (u, v), m in (multiplicities or {}).items():
            if not (is_int(u) and is_int(v)):
                raise BadArgs(f"vertices must be integers, got ({u!r}, {v!r})")
            if not (0 <= u < order and 0 <= v < order):
                raise UnknownVertex(f"vertex pair ({u}, {v}) outside 0..{order - 1}")
            if u == v:
                raise BadArgs(f"self-loop on vertex {u} is not allowed")
            if not is_int(m) or m < 0:
                raise BadArgs(f"multiplicity on ({u}, {v}) must be an integer >= 0, got {m!r}")
            key = (u, v) if u < v else (v, u)
            folded[key] = folded.get(key, 0) + m
        self.order = order
        self._pairs = {key: m for key, m in sorted(folded.items()) if m}
        self._size = sum(self._pairs.values())

    @classmethod
    def _of_pairs(cls, order: int, pairs: Iterable[tuple[tuple[int, int], int]]) -> "Multigraph":
        """A builder's graph, with none of ``__init__``'s checks: each pair
        (u, v) comes once, with integers 0 <= u < v < order and an integer
        multiplicity >= 0, by construction.  Zero multiplicities are
        dropped and the pairs sorted, which takes one pass over a stream
        already in either lexicographic order."""
        g = cls.__new__(cls)
        g.order = order
        g._pairs = dict(sorted((pair, m) for pair, m in pairs if m))
        g._size = sum(g._pairs.values())
        return g

    @classmethod
    def empty(cls, order: int) -> "Multigraph":
        return cls(order, {})

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Multigraph":
        """Build from an edge list; repeated pairs accumulate multiplicity."""
        return cls(order, Counter(edges))

    @property
    def size(self) -> int:
        """Edge count with multiplicity."""
        return self._size

    def multiplicity(self, u: int, v: int) -> int:
        u, v = _vertex(u), _vertex(v)
        if not (0 <= u < self.order and 0 <= v < self.order):
            raise UnknownVertex(f"vertex pair ({u}, {v}) outside 0..{self.order - 1}")
        return self._pairs.get((u, v) if u < v else (v, u), 0)

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.order
        for (u, v), m in self._pairs.items():
            degs[u] += m
            degs[v] += m
        return tuple(degs)

    def pair_multiplicities(self) -> ItemsView[tuple[int, int], int]:
        """Nonzero (u, v) -> multiplicity pairs with u < v, in lexicographic order."""
        return self._pairs.items()

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with each pair repeated by its multiplicity."""
        out: list[tuple[int, int]] = []
        for (u, v), m in self._pairs.items():
            out.extend([(u, v)] * m)
        return out

    def induced_size(self, vertices: Iterable[int]) -> int:
        """Sum of edge multiplicities over pairs inside ``vertices``."""
        vs = {_vertex(v) for v in vertices}
        for v in vs:
            if not 0 <= v < self.order:
                raise UnknownVertex(f"vertex {v} outside 0..{self.order - 1}")
        return sum(m for (u, v), m in self._pairs.items() if u in vs and v in vs)

    def is_almost_regular(self) -> bool:
        """True when all vertex degrees differ by at most one."""
        degs: dict[int, int] = {}
        for (u, v), m in self._pairs.items():
            degs[u] = degs.get(u, 0) + m
            degs[v] = degs.get(v, 0) + m
        # a vertex on no pair has degree 0
        low = min(degs.values(), default=0) if len(degs) == self.order else 0
        return max(degs.values(), default=0) - low <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.order == other.order
            and self._pairs == other._pairs
        )

    def __hash__(self) -> int:
        return hash((self.order, tuple(self._pairs.items())))

    def __repr__(self) -> str:
        return f"Multigraph(order={self.order}, size={self._size})"


def _matrix(g: Multigraph) -> list[list[int]]:
    """Dense symmetric multiplicity matrix, for the kernels that index pairs."""
    rows = [[0] * g.order for _ in range(g.order)]
    for (u, v), m in g.pair_multiplicities():
        rows[u][v] = rows[v][u] = m
    return rows


def _forest_density(g: Multigraph, k: int) -> int | None:
    """k-density of ``g`` if it is a simple forest, else None.

    A union-find over the vertices on a pair finds the components and
    rejects a repeated pair or a pair inside one component (a cycle).
    Every other vertex is a component of order 1.  The density is k - j
    for the fewest components j, largest first, that hold k vertices.
    """
    root = {v: v for pair, _ in g.pair_multiplicities() for v in pair}
    comp = dict.fromkeys(root, 1)  # the order of the component at each root

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for (u, v), m in g.pair_multiplicities():
        u, v = find(u), find(v)
        if m > 1 or u == v:
            return None
        if comp[u] < comp[v]:
            u, v = v, u
        root[v] = u
        comp[u] += comp[v]
    orders = sorted((comp[v] for v, r in root.items() if r == v), reverse=True)
    j = covered = 0
    while covered < k and j < len(orders):
        covered += orders[j]
        j += 1
    # the k - covered vertices still wanted come one per component of order 1
    return k - j - max(k - covered, 0)


def _enumerate(g: Multigraph, k: int, cap: int | None = None) -> int:
    """Largest induced size over the k-vertex subsets of ``g``, by walking them.

    ``cap`` is as for ``_densest``.  For k > order / 2 it walks the
    complements T instead, since a subset S induces size - (degree sum
    of T) + induced(T) edges; the walk is therefore never deeper than
    order / 2.
    """
    n = g.order
    if 2 * k > n:
        size, left, gain = g.size, n - k, [-d for d in g.degrees()]
    else:
        size, left, gain = 0, k, [0] * n
    if left == 0:
        return size
    rows = _matrix(g) if left > 1 else []  # a one-vertex walk reads no pair
    best = 0

    def extend(start: int, left: int, size: int, gain: list[int]) -> bool:
        # ``left`` more vertices come from start..n-1; adding vertex start + i
        # to the chosen prefix, whose subset scores ``size``, scores gain[i] more
        nonlocal best
        if left == 1:
            top = size + max(gain)
            if top > best:
                best = top
            return cap is not None and best > cap
        for i in range(n - start - left + 1):
            u = start + i
            nxt = [a + b for a, b in zip(gain[i + 1:], rows[u][u + 1:])]
            if extend(u + 1, left - 1, size + gain[i], nxt):
                return True
        return False

    extend(0, left, size, gain)
    return best


def _densest(g: Multigraph, k: int, cap: int | None = None) -> int:
    """Largest induced size over the k-vertex subsets of ``g``, 1 <= k <= g.order.

    With ``cap`` set the answer may stop short: it is above ``cap``
    whenever the maximum is, and it is the exact maximum whenever that
    maximum is at most ``cap``.  The closed forms for k = 1, for k = 2 and
    for simple forests are always exact; every other graph takes the walk of
    ``_enumerate``, which stops at the first subset above ``cap``.  Only
    a graph with fewer edges than vertices can be a forest, so denser
    graphs skip the forest test.  A walk over more than ``SUBSET_BUDGET``
    subsets raises ``EnvelopeExceeded``; C(n, j) grows with j up to n / 2,
    so j is capped at ``_BUDGET_SIDE`` and no huge C(n, k) is formed.
    """
    if k == 1:
        return 0
    if k == 2:
        return max((m for _, m in g.pair_multiplicities()), default=0)
    if g.size < g.order:
        density = _forest_density(g, k)
        if density is not None:
            return density
    if comb(g.order, min(k, g.order - k, _BUDGET_SIDE)) > SUBSET_BUDGET:
        raise EnvelopeExceeded(f"C({g.order}, {k}) > {SUBSET_BUDGET} subsets to walk")
    return _enumerate(g, k, cap)


def k_density(g: Multigraph, k: int) -> int:
    """Maximum induced size over all k-vertex subsets.

    Exact by ``_densest``: in closed form for k = 1, for k = 2 and for
    simple forests, by enumerating the k-subsets otherwise (``EnvelopeExceeded``
    past ``SUBSET_BUDGET`` of them).
    """
    if not is_int(k) or not 1 <= k <= g.order:
        raise BadK(f"k must be an integer in [1, {g.order}], got {k!r}")
    return _densest(g, k)


def is_family_free(g: Multigraph, family: ForbiddenFamily) -> bool:
    """True iff no subgraph of ``family.order`` vertices has size > ``family.max_size``."""
    if family.order > g.order:
        raise BadK(
            f"family order {family.order} exceeds graph order {g.order}"
        )
    if g.size <= family.max_size:
        # no induced subgraph is larger than the whole graph
        return True
    return _densest(g, family.order, family.max_size) <= family.max_size


def multigraph_to_json(g: Multigraph) -> dict:
    """JSON form: {"order": N, "edges": [[u, v], ...]}, repeats encode multiplicity."""
    return {"order": g.order, "edges": [[u, v] for (u, v) in g.edges()]}


def multigraph_from_json(data: dict) -> Multigraph:
    if not isinstance(data, dict) or "order" not in data or not isinstance(data.get("edges"), (list, tuple)):
        raise BadArgs("graph JSON must have an 'order' key and an 'edges' list")
    edges = []
    for item in data["edges"]:
        if not (isinstance(item, (list, tuple)) and len(item) == 2 and all(map(is_int, item))):
            raise BadArgs(f"bad edge entry {item!r}")
        edges.append(tuple(item))
    return Multigraph.from_edges(data["order"], edges)
