"""Resolution of the best achievable minimum distance for (n, k, r).

The answer is always d* or d* - 1, and equals d* exactly when some
loopless multigraph of order n1 and size n2 has every k1-subset inducing
at most k2 edges.  ``decide`` walks the ordered rule table ``RULES``, and
the first rule whose precondition holds decides: its witness graph means
d*, None means d* - 1.  The closed-form rules enumerate no subsets; the
last rule is the exhaustive multigraph oracle inside the search envelope.
A rule marked "d* only" never answers d* - 1, because earlier rules settle
every such instance that reaches it, and a "one-sided" rule applies only
when its witness exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from math import comb
from typing import Iterable

from . import constructions as cons
from . import extremal
from .errors import SelfCheckFailed
from .multigraph import ForbiddenFamily, Multigraph, is_family_free
from .params import CodeParams

DEFAULT_ORACLE_LIMIT = 8
SELF_CHECK_LIMIT = 20_000  # most k1-subsets the witness self-check enumerates
# the least j with C(2j, j) > SELF_CHECK_LIMIT
_SELF_CHECK_SIDE = next(j for j in count(1) if comb(2 * j, j) > SELF_CHECK_LIMIT)


@dataclass(frozen=True)
class Decision:
    """Resolved distance value with rule provenance and an optional witness."""

    params: CodeParams
    value: int | tuple[int, int]
    status: str  # "exact" | "unresolved"
    rule: str
    witness: Multigraph | None
    notes: tuple[str, ...] = field(default=())


def forest_component_min(n1: int, k1: int, k2: int) -> int:
    """Fewest components of a free balanced forest on n1 vertices (k2 < k1 - 1).

    Freeness of a forest says the k1 - k2 - 1 largest components together
    hold at most k1 - 1 vertices.  With component orders differing by at
    most one that caps the large-component order at L = ceil(k1 / (k1-k2-1))
    with at most (k1 - 1) mod (k1-k2-1) components that large, and the rest
    at L - 1.  The smallest component count able to cover n1 vertices under
    those caps is returned.
    """
    kappa = k1 - k2 - 1
    if kappa <= 0:
        raise ValueError("component bound requires k2 < k1 - 1")
    large = -(-k1 // kappa)
    n_large = (k1 - 1) % kappa
    covered_by_large = n_large * large
    if n1 <= covered_by_large:
        return -(-n1 // large)
    return n_large + -(-(n1 - covered_by_large) // (large - 1))


def _take(order: int, pairs: Iterable[tuple[tuple[int, int], int]], size: int) -> Multigraph:
    """The first ``size`` edge units of a pair stream in descending lexicographic order.

    These are the graph's last ``size`` units in lexicographic order; a
    stream that runs out early gives a smaller graph.
    """
    kept: dict[tuple[int, int], int] = {}
    for pair, m in pairs:
        if size == 0:
            break
        kept[pair] = min(m, size)
        size -= kept[pair]
    return Multigraph(order, kept)


def _girth_regime(p: CodeParams) -> bool:
    """k2 = k1 - 1 with k1 >= 3: the free graphs are the simple graphs of girth > k1."""
    return p.k2 == p.k1 - 1 and p.k1 >= 3


def _turan_size(order: int, parts: int) -> int:
    """Size of ``cons.turan_graph(order, parts)``: (order^2 - sum of squared part sizes) / 2."""
    base, extra = divmod(order, parts)
    return (order * order - extra * (base + 1) ** 2 - (parts - extra) * base * base) // 2


def _saturated_witness(p: CodeParams) -> Multigraph | None:
    if p.n2 <= comb(p.n1, 2) * p.k2:
        return _take(p.n1, cons.saturated_pairs(p.n1, p.k2), p.n2)
    return None


def _forest_witness(p: CodeParams) -> Multigraph | None:
    if p.n2 <= p.n1 - forest_component_min(p.n1, p.k1, p.k2):
        return cons.balanced_forest(p.n1, p.n1 - p.n2)
    return None


def _girth_witness(p: CodeParams) -> Multigraph | None:
    girth = extremal.max_size_girth(p.n1, p.k1)
    if p.n2 <= girth.value:
        return _take(p.n1, reversed(girth.witness.pair_multiplicities()), p.n2)
    return None


# (name, applies(p, search_limit), witness(p)) in evaluation order; each
# rule may assume that no earlier rule applied.  Constructions and oracles
# are looked up on their modules at call time.
RULES = (
    # r = k: every 1-vertex subgraph is empty
    ("k1_eq_1", lambda p, _: p.k1 == 1, lambda p: cons.almost_regular(p.n1, p.n2)),
    # n2 = 0: the empty graph is trivially free
    ("divides", lambda p, _: p.n2 == 0, lambda p: Multigraph.empty(p.n1)),
    # 0 < n2 <= k2: the whole size is already small enough
    ("n2_le_k2", lambda p, _: p.k2 >= p.n2, lambda p: cons.almost_regular(p.n1, p.n2)),
    # k2 = 0, k1 >= 2, n2 >= 1: a single edge violates
    ("k2_zero", lambda p, _: p.k2 == 0 and p.k1 >= 2, lambda p: None),
    # k1 = 2: the saturated pair graph is extremal, free iff n2 <= C(n1, 2) * k2
    ("k1_eq_2", lambda p, _: p.k1 == 2, _saturated_witness),
    # any k2 + 1 edges span at most 2k2 + 2 <= k1 vertices and violate
    ("many_edges", lambda p, _: p.n2 >= p.k2 + 1 and p.k1 >= 2 * p.k2 + 2, lambda p: None),
    # the min-degree peeling bound exceeds k2: no free graph
    ("t_bound", lambda p, _: extremal.t_bound(p.n1, p.n2, p.k1, "floor") > p.k2, lambda p: None),
    # k2 < k1 - 1: balanced forests are extremal
    ("forest_k2_lt_k1m1", lambda p, _: p.k2 < p.k1 - 1, _forest_witness),
    # n1 - k1 = 1, d* only: the almost-regular graph is free; d* - 1 needs
    # n2 - floor(2 n2 / n1) > k2, which is t_bound after one peel
    ("real_n1m1", lambda p, _: p.n1 - p.k1 == 1, lambda p: cons.almost_regular(p.n1, p.n2)),
    # k1 = 3, k2 = 2, d* only: the bipartite Turan graph is free; past
    # floor(n1^2 / 4) edges t_bound already ends above 2 at order 3
    ("mantel", lambda p, _: p.k1 == 3 and p.k2 == 2, lambda p: _take(p.n1, cons.turan_pairs(p.n1, 2), p.n2)),
    # k2 = C(k1, 2) - 1, one-sided: forbidding k1-subsets of size C(k1, 2)
    # means forbidding k1-cliques, and the balanced complete (k1-1)-partite
    # graph is the densest such simple graph, so it applies when that graph
    # has n2 edges
    ("turan_sufficient",
     lambda p, _: p.k2 == comb(p.k1, 2) - 1 and _turan_size(p.n1, p.k1 - 1) >= p.n2,
     lambda p: _take(p.n1, cons.turan_pairs(p.n1, p.k1 - 1), p.n2)),
    # n2 < n1, d* only: k1 - 1 <= k2 and k1 < n1 here, and k1 < n1 vertices
    # of a forest or a cycle induce a forest, so at most k1 - 1 edges
    ("forest_n2_lt_n1", lambda p, _: p.n2 < p.n1, lambda p: cons.balanced_forest(p.n1, p.n1 - p.n2)),
    # n2 = n1, d* only: the cycle is free, as above
    ("cycle_n2_eq_n1", lambda p, _: p.n2 == p.n1, lambda p: cons.cycle_graph(p.n1)),
    # k2 = k1 - 1: free graphs of this size exist iff simple graphs of
    # girth > k1 reach size n2
    ("girth_k2_eq_k1m1", lambda p, limit: _girth_regime(p) and p.n1 <= limit, _girth_witness),
    # exhaustive multigraph search
    ("oracle", lambda p, limit: p.n1 <= limit,
     lambda p: extremal.free_multigraph(p.n1, p.n2, ForbiddenFamily(p.k1, p.k2))),
)


def _exceeds_self_check_limit(n: int, k: int) -> bool:
    """Whether C(n, k) > SELF_CHECK_LIMIT, for 0 <= k <= n, without forming
    C(n, k) in full.

    C(n, j) grows with j up to n / 2, so when j = min(k, n - k) reaches
    ``_SELF_CHECK_SIDE`` (whence n >= 2 * _SELF_CHECK_SIDE), C(n, k) is at
    least C(n, _SELF_CHECK_SIDE) >= C(2 * _SELF_CHECK_SIDE, _SELF_CHECK_SIDE),
    which already exceeds the limit.
    """
    return comb(n, min(k, n - k, _SELF_CHECK_SIDE)) > SELF_CHECK_LIMIT


def decide(p: CodeParams, oracle_limit: int = DEFAULT_ORACLE_LIMIT, *, use_rules: bool = True) -> Decision:
    """Resolve the best achievable distance for validated parameters ``p``.

    ``oracle_limit`` caps the order at which the exhaustive searches run
    (values above the module envelope are clamped).  With ``use_rules=False``
    only the last rule, the exhaustive oracle, is consulted, which is how the
    other rules get audited.

    A d* witness is checked to be family-free whenever C(n1, k1) is at
    most ``SELF_CHECK_LIMIT``; a failed check raises ``SelfCheckFailed``,
    and a skipped one is recorded in ``notes``.
    """
    search_limit = min(oracle_limit, extremal.SEARCH_ENVELOPE)
    for rule, applies, witness_of in RULES if use_rules else RULES[-1:]:
        if applies(p, search_limit):
            witness = witness_of(p)
            break
    else:
        notes = [f"n1={p.n1} exceeds oracle limit {search_limit}"]
        if not use_rules:
            notes.append("closed-form rules disabled")
        elif _girth_regime(p) and p.n1 <= extremal.SEARCH_ENVELOPE:
            # limits are clamped to the envelope, so only orders inside it qualify
            notes.append("resolvable via the girth oracle at a higher limit")
        return Decision(p, (p.d_star - 1, p.d_star), "unresolved", "unresolved", None, tuple(notes))
    if witness is None:
        return Decision(params=p, value=p.d_star - 1, status="exact", rule=rule, witness=None)
    if witness.order != p.n1 or witness.size != p.n2:
        raise SelfCheckFailed(f"rule {rule} gave no witness of order {p.n1} and size {p.n2}")
    # self-check the witness where the density sweep is affordable
    notes: tuple[str, ...] = ()
    if not _exceeds_self_check_limit(p.n1, p.k1):
        if not is_family_free(witness, ForbiddenFamily(p.k1, p.k2)):
            raise SelfCheckFailed(
                f"rule {rule} gave a witness with {p.k1} vertices inducing more than {p.k2} edges"
            )
    else:
        notes = (f"witness self-check skipped: C({p.n1}, {p.k1}) > {SELF_CHECK_LIMIT}",)
    return Decision(params=p, value=p.d_star, status="exact", rule=rule, witness=witness, notes=notes)
