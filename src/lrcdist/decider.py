"""Resolution of the best achievable minimum distance for (n, k, r).

The answer is always d* or d* - 1, and equals d* exactly when some
loopless multigraph of order n1 and size n2 has every k1-subset inducing
at most k2 edges.  ``decide`` settles the question by a chain of
closed-form rules that enumerate no subsets ("d* only": earlier rules
settle every d* - 1 instance that reaches it), falling back to the
exhaustive multigraph oracle inside the search envelope, and attaches
the witness graph whenever the answer is d*.

Rule identifiers, in evaluation order (closed forms first, then oracles):

    k1_eq_1              r = k: every 1-vertex subgraph is empty
    divides              n2 = 0: the empty graph is trivially free
    n2_le_k2             n2 <= k2 (and n2 > 0): total size already small enough
    k2_zero              k2 = 0, k1 >= 2, n2 >= 1: a single edge violates
    k1_eq_2              k1 = 2: saturated pair graph is extremal, free
                         iff n2 <= C(n1, 2) * k2
    many_edges           n2 >= k2 + 1 and k1 >= 2k2 + 2: any k2 + 1 edges
                         span at most k1 vertices and violate
    t_bound              min-degree peeling bound exceeds k2: no free graph
    forest_k2_lt_k1m1    k2 < k1 - 1: balanced forests are extremal
    real_n1m1            n1 - k1 = 1: the almost-regular graph is free (d* only)
    mantel               k1 = 3, k2 = 2: the bipartite Turan graph is free (d* only)
    turan_sufficient     k2 = C(k1, 2) - 1: the balanced complete
                         (k1-1)-partite graph is free (one-sided rule)
    forest_n2_lt_n1      n2 < n1: the balanced forest is free (d* only)
    cycle_n2_eq_n1       n2 = n1: the cycle is free (d* only)
    girth_k2_eq_k1m1     k2 = k1 - 1: free graphs of this size exist iff
                         simple graphs of girth > k1 reach size n2
    oracle               exhaustive multigraph search
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable

from . import constructions as cons
from . import extremal
from .errors import SelfCheckFailed
from .multigraph import ForbiddenFamily, Multigraph, is_family_free
from .params import CodeParams

DEFAULT_ORACLE_LIMIT = 8
SELF_CHECK_LIMIT = 20_000  # most k1-subsets the witness self-check enumerates


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


def _resolve(p: CodeParams, search_limit: int, use_rules: bool):
    """Return (rule, witness): the witness of order n1 and size n2 when d* is
    attained, None when the answer is d* - 1.  The rule "unresolved" means
    neither could be shown; every other rule is exact.
    """
    n1, n2, k1, k2 = p.n1, p.n2, p.k1, p.k2

    if use_rules:
        if k1 == 1:
            return "k1_eq_1", cons.almost_regular(n1, n2)
        if n2 == 0:
            return "divides", Multigraph.empty(n1)
        if k2 >= n2:
            return "n2_le_k2", cons.almost_regular(n1, n2)
        if k2 == 0 and k1 >= 2:
            return "k2_zero", None
        if k1 == 2:
            if n2 <= comb(n1, 2) * k2:
                return "k1_eq_2", _take(n1, cons.saturated_pairs(n1, k2), n2)
            return "k1_eq_2", None
        if n2 >= k2 + 1 and k1 >= 2 * k2 + 2:
            return "many_edges", None
        if extremal.t_bound(n1, n2, k1, "floor") > k2:
            return "t_bound", None
        if k2 < k1 - 1:
            c_min = forest_component_min(n1, k1, k2)
            if n2 <= n1 - c_min:
                return "forest_k2_lt_k1m1", cons.balanced_forest(n1, n1 - n2)
            return "forest_k2_lt_k1m1", None
        if n1 - k1 == 1:
            # d* - 1 needs n2 - floor(2 n2 / n1) > k2, which is t_bound after one peel
            return "real_n1m1", cons.almost_regular(n1, n2)
        if k1 == 3 and k2 == 2:
            # past floor(n1^2 / 4) edges t_bound already ends above 2 at order 3
            return "mantel", _take(n1, cons.turan_pairs(n1, 2), n2)
        if k2 == comb(k1, 2) - 1:
            # forbidding k1-subsets of size C(k1,2) means forbidding k1-cliques;
            # the balanced complete (k1-1)-partite graph is the densest such
            # simple graph, so this rule is sufficient-only
            witness = _take(n1, cons.turan_pairs(n1, k1 - 1), n2)
            if witness.size == n2:
                return "turan_sufficient", witness
        # k1 - 1 <= k2 and k1 < n1 here, and k1 < n1 vertices of a forest or a
        # cycle induce a forest, so at most k1 - 1 edges
        if n2 < n1:
            return "forest_n2_lt_n1", cons.balanced_forest(n1, n1 - n2)
        if n2 == n1:
            return "cycle_n2_eq_n1", cons.cycle_graph(n1)
        if _girth_regime(p) and n1 <= search_limit:
            girth = extremal.max_size_girth(n1, k1)
            if n2 <= girth.value:
                return "girth_k2_eq_k1m1", _take(n1, reversed(girth.witness.pair_multiplicities()), n2)
            return "girth_k2_eq_k1m1", None

    if n1 <= search_limit:
        return "oracle", extremal.free_multigraph(n1, n2, ForbiddenFamily(k1, k2))
    return "unresolved", None


def decide(p: CodeParams, oracle_limit: int = DEFAULT_ORACLE_LIMIT, *, use_rules: bool = True) -> Decision:
    """Resolve the best achievable distance for validated parameters ``p``.

    ``oracle_limit`` caps the order at which the exhaustive searches run
    (values above the module envelope are clamped).  With ``use_rules=False``
    the closed-form catalogue is skipped and only the exhaustive oracle is
    consulted, which is how the rule chain itself gets audited.

    A d* witness is checked to be family-free whenever C(n1, k1) is at
    most ``SELF_CHECK_LIMIT``; a failed check raises ``SelfCheckFailed``,
    and a skipped one is recorded in ``notes``.
    """
    search_limit = min(oracle_limit, extremal.SEARCH_ENVELOPE)
    rule, witness = _resolve(p, search_limit, use_rules)
    if rule == "unresolved":
        notes = [f"n1={p.n1} exceeds oracle limit {search_limit}"]
        if not use_rules:
            notes.append("closed-form rules disabled")
        elif _girth_regime(p) and p.n1 <= extremal.SEARCH_ENVELOPE:
            # limits are clamped to the envelope, so only orders inside it qualify
            notes.append("resolvable via the girth oracle at a higher limit")
        return Decision(
            params=p,
            value=(p.d_star - 1, p.d_star),
            status="unresolved",
            rule=rule,
            witness=None,
            notes=tuple(notes),
        )
    if witness is None:
        return Decision(params=p, value=p.d_star - 1, status="exact", rule=rule, witness=None)
    if witness.order != p.n1 or witness.size != p.n2:
        raise SelfCheckFailed(f"rule {rule} gave no witness of order {p.n1} and size {p.n2}")
    # self-check the witness where the density sweep is affordable
    notes: tuple[str, ...] = ()
    subsets = comb(p.n1, p.k1)
    if subsets <= SELF_CHECK_LIMIT:
        if not is_family_free(witness, ForbiddenFamily(p.k1, p.k2)):
            raise SelfCheckFailed(
                f"rule {rule} gave a witness with {p.k1} vertices inducing more than {p.k2} edges"
            )
    else:
        notes = (f"witness self-check skipped: C({p.n1}, {p.k1}) = {subsets} > {SELF_CHECK_LIMIT}",)
    return Decision(params=p, value=p.d_star, status="exact", rule=rule, witness=witness, notes=notes)
