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

By the paper's equivalence the graph question depends on the key
(n1, n2, k1, k2) alone; only d* depends on (n, k, r).  So the rule walk,
the witness and its self-check are memoized per key, search limit and
rule switch (``_resolve``), and ``decide`` only puts d* or d* - 1 into a
``Decision`` for each triple.  Exceptions, ``SelfCheckFailed`` among
them, are never cached.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple

from . import constructions as cons
from . import extremal
from .errors import BadArgs, EnvelopeExceeded, SelfCheckFailed
from .multigraph import SUBSET_BUDGET, ForbiddenFamily, Multigraph, is_family_free
from .params import CodeParams, is_int

DEFAULT_ORACLE_LIMIT = 8


class Decision(NamedTuple):
    """Resolved distance value with rule provenance and an optional witness."""

    params: CodeParams
    value: int | tuple[int, int]
    status: str  # "exact" | "unresolved"
    rule: str
    witness: Multigraph | None
    notes: tuple[str, ...] = ()


class _Key(NamedTuple):
    """What the rules see of the parameters: the family key and the clamped
    search limit, without n, k, r or d*."""

    n1: int
    n2: int
    k1: int
    k2: int
    limit: int


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
    return Multigraph._of_pairs(order, kept.items())


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


# (name, applies(p), witness(p)) in evaluation order; each rule may
# assume that no earlier rule applied, and only the family search reads
# p.limit.  Constructions and oracles are looked up on their modules at
# call time.
RULES = (
    # r = k: every 1-vertex subgraph is empty
    ("k1_eq_1", lambda p: p.k1 == 1, lambda p: cons.almost_regular(p.n1, p.n2)),
    # n2 = 0: the empty graph is trivially free
    ("divides", lambda p: p.n2 == 0, lambda p: Multigraph.empty(p.n1)),
    # 0 < n2 <= k2: the whole size is already small enough
    ("n2_le_k2", lambda p: p.k2 >= p.n2, lambda p: cons.almost_regular(p.n1, p.n2)),
    # k2 = 0, k1 >= 2, n2 >= 1: a single edge violates
    ("k2_zero", lambda p: p.k2 == 0 and p.k1 >= 2, lambda p: None),
    # k1 = 2: the saturated pair graph is extremal, free iff n2 <= C(n1, 2) * k2
    ("k1_eq_2", lambda p: p.k1 == 2, _saturated_witness),
    # any k2 + 1 edges span at most 2k2 + 2 <= k1 vertices and violate
    ("many_edges", lambda p: p.n2 >= p.k2 + 1 and p.k1 >= 2 * p.k2 + 2, lambda p: None),
    # the min-degree peeling bound exceeds k2: no free graph
    ("t_bound", lambda p: extremal.t_bound(p.n1, p.n2, p.k1) > p.k2, lambda p: None),
    # k2 < k1 - 1: balanced forests are extremal
    ("forest_k2_lt_k1m1", lambda p: p.k2 < p.k1 - 1, _forest_witness),
    # n1 - k1 = 1, d* only: the almost-regular graph is free; d* - 1 needs
    # n2 - floor(2 n2 / n1) > k2, which is t_bound after one peel
    ("real_n1m1", lambda p: p.n1 - p.k1 == 1, lambda p: cons.almost_regular(p.n1, p.n2)),
    # k1 = 3, k2 = 2, d* only: the bipartite Turan graph is free; past
    # floor(n1^2 / 4) edges t_bound already ends above 2 at order 3
    ("mantel", lambda p: p.k1 == 3 and p.k2 == 2, lambda p: _take(p.n1, cons.turan_pairs(p.n1, 2), p.n2)),
    # k2 = C(k1, 2) - 1, one-sided: forbidding k1-subsets of size C(k1, 2)
    # means forbidding k1-cliques, and the balanced complete (k1-1)-partite
    # graph is the densest such simple graph, so it applies when that graph
    # has n2 edges
    ("turan_sufficient",
     lambda p: p.k2 == comb(p.k1, 2) - 1 and _turan_size(p.n1, p.k1 - 1) >= p.n2,
     lambda p: _take(p.n1, cons.turan_pairs(p.n1, p.k1 - 1), p.n2)),
    # n2 < n1, d* only: k1 - 1 <= k2 and k1 < n1 here, and k1 < n1 vertices
    # of a forest or a cycle induce a forest, so at most k1 - 1 edges
    ("forest_n2_lt_n1", lambda p: p.n2 < p.n1, lambda p: cons.balanced_forest(p.n1, p.n1 - p.n2)),
    # n2 = n1, d* only: the cycle is free, as above
    ("cycle_n2_eq_n1", lambda p: p.n2 == p.n1, lambda p: cons.cycle_graph(p.n1)),
    # k2 = k1 - 1, k1 >= 3: the free graphs are the simple graphs of girth
    # > k1, and the girth oracle is exact at every order inside the envelope
    ("girth_k2_eq_k1m1",
     lambda p: p.k2 == p.k1 - 1 and p.k1 >= 3 and p.n1 <= extremal.SEARCH_ENVELOPE,
     _girth_witness),
    # exhaustive multigraph search
    ("oracle", lambda p: p.n1 <= p.limit,
     lambda p: extremal.free_multigraph(p.n1, p.n2, ForbiddenFamily(p.k1, p.k2))),
)


@lru_cache(maxsize=None)
def _resolve(
    n1: int, n2: int, k1: int, k2: int, search_limit: int, use_rules: bool
) -> tuple[str, Multigraph | None, tuple[str, ...]]:
    """(rule, witness, notes) for one key; rule "unresolved" when no rule applies."""
    p = _Key(n1, n2, k1, k2, search_limit)
    for rule, applies, witness_of in RULES if use_rules else RULES[-1:]:
        if applies(p):
            witness = witness_of(p)
            break
    else:
        notes = [f"n1={n1} exceeds oracle limit {search_limit}"]
        if not use_rules:
            notes.append("closed-form rules disabled")
        return "unresolved", None, tuple(notes)
    if witness is None:
        return rule, None, ()
    if witness.order != n1 or witness.size != n2:
        raise SelfCheckFailed(f"rule {rule} gave no witness of order {n1} and size {n2}")
    try:
        free = is_family_free(witness, ForbiddenFamily(k1, k2))
    except EnvelopeExceeded:
        return rule, witness, (f"witness self-check skipped: C({n1}, {k1}) > {SUBSET_BUDGET}",)
    if not free:
        raise SelfCheckFailed(f"rule {rule} gave a witness with {k1} vertices inducing more than {k2} edges")
    return rule, witness, ()


def decide(p: CodeParams, oracle_limit: int = DEFAULT_ORACLE_LIMIT, *, use_rules: bool = True) -> Decision:
    """Resolve the best achievable distance for validated parameters ``p``.

    ``oracle_limit``, an integer >= 0, caps the order at which the family
    search, the last rule, runs (values above the module envelope are
    clamped); no other rule reads it.  With ``use_rules=False`` only the
    family search is consulted, which is how the other rules get audited;
    ``use_rules`` must be a bool.

    Every d* witness is checked to be family-free; a failed check raises
    ``SelfCheckFailed``.  A check that the density kernel refuses, a walk
    over more than ``multigraph.SUBSET_BUDGET`` subsets, is skipped and
    recorded in ``notes``.

    The rule, witness and notes are a function of the key (n1, n2, k1, k2)
    and are computed once per key, clamped limit and ``use_rules`` in a
    process; triples with the same key share one witness.  A raised
    exception is not cached, so a bad witness raises on every call.
    """
    if not is_int(oracle_limit) or oracle_limit < 0:
        raise BadArgs(f"oracle limit must be an integer >= 0, got {oracle_limit!r}")
    if not isinstance(use_rules, bool):
        raise BadArgs(f"use_rules must be a bool, got {use_rules!r}")
    rule, witness, notes = _resolve(
        p.n1, p.n2, p.k1, p.k2, min(oracle_limit, extremal.SEARCH_ENVELOPE), use_rules
    )
    if rule == "unresolved":
        return Decision(p, (p.d_star - 1, p.d_star), "unresolved", rule, None, notes)
    value = p.d_star if witness is not None else p.d_star - 1
    return Decision(p, value, "exact", rule, witness, notes)
