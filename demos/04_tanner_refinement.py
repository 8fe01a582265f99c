#!/usr/bin/env python3
"""Show why the graph question decides the code question.

A parity-check structure for an (n, k, r) code is a bipartite graph of
variable and check nodes; its combinatorial minimum distance only depends
on which variables each check can see.  This demo starts from a messy but
valid check structure, strips it down to the canonical core (n1 checks,
n2 variables, every variable of degree two) without losing distance, and
reads the multigraph straight off the core: degree-two variables are
edges between checks.
"""

import random

from lrcdist import (
    Multigraph,
    derive_params,
    f2p,
    graph_to_pruned,
    p2f,
    refine,
    tanner_min_distance,
)
from lrcdist.tanner import FullTannerGraph


def random_full_tanner(rng, p, locals_count):
    n, r = p.n, p.r
    while True:
        slots = locals_count * (r + 1)
        fill = list(range(n))
        rng.shuffle(fill)
        while len(fill) < slots:
            fill.append(rng.randrange(n))
        rng.shuffle(fill)
        checks = [fill[i * (r + 1):(i + 1) * (r + 1)] for i in range(locals_count)]
        if all(len(set(c)) == r + 1 for c in checks):
            return FullTannerGraph(p, tuple(frozenset(c) for c in checks))


def main():
    rng = random.Random(4)
    n, k, r = 13, 7, 3
    p = derive_params(n, k, r)
    print(f"(n, k, r) = ({n}, {k}, {r}): n1 = {p.n1}, n2 = {p.n2}, d* = {p.d_star}")

    t = random_full_tanner(rng, p, locals_count=5)
    print(f"\nrandom full Tanner graph: {len(t.local_checks)} local checks "
          f"of degree {r + 1}, {n - k - len(t.local_checks)} global checks")
    d0 = tanner_min_distance(t)
    print(f"combinatorial minimum distance: {d0}")

    pruned = f2p(t)
    print(f"\nafter pruning: h = {pruned.h} checks, m = {pruned.m} variables, "
          f"{sum(len(c) for c in pruned.checks)} edges")

    core = refine(pruned)
    d1 = tanner_min_distance(p2f(core))
    print(f"after refinement: h = {core.h} = n1, m = {core.m} = n2, "
          f"all variable degrees two")
    print(f"distance after refinement: {d1} (never below {d0})")

    pair_of = [tuple(i for i, c in enumerate(core.checks) if v in c) for v in range(core.m)]
    g = Multigraph.from_edges(core.h, pair_of)
    print(f"\nthe core as a multigraph: order {g.order}, size {g.size}, "
          f"edges {g.edges()}")

    back = p2f(graph_to_pruned(g, p))
    print(f"rebuilt from the multigraph, distance: {tanner_min_distance(back)}")
    print("\nd* is achievable exactly when some such multigraph keeps every")
    print(f"{p.k1}-vertex subset at {p.k2} edges or fewer.")


if __name__ == "__main__":
    main()
