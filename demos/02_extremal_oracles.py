#!/usr/bin/env python3
"""Exercise the exact extremal-graph oracles behind the distance decisions.

Three exact oracles answer: how many edges can a graph on n vertices
carry before some k-subset gets denser than allowed?  Two are exhaustive
searches, over multigraphs and over simple graphs; the third, for graphs
with no short cycle, is a greedy construction certified by the irregular
Moore bound.  The demo reproduces the classic triangle-free numbers,
shows that multiple edges buy nothing when the density cap is k - 1, and
cross-checks that regime against the independent girth oracle.
"""

from lrcdist import (
    ForbiddenFamily,
    max_size_girth,
    max_size_multigraph,
    max_size_simple,
)


def main():
    print("Densest graphs with every 3 vertices inducing at most 2 edges")
    print("(multiplicity allowed; matches floor(n^2 / 4) exactly):")
    for n in range(3, 8):
        res = max_size_multigraph(n, ForbiddenFamily(3, 2))
        print(f"  n={n}:  max size {res.value:3d}   floor(n^2/4) = {n * n // 4:3d}")

    print()
    print("Cap k-subsets at k - 1 edges: multigraphs, simple graphs, and")
    print("girth->k graphs all top out at the same size:")
    print(f"  {'n':>3} {'k':>3} {'multi':>6} {'simple':>7} {'girth':>6}")
    for k in (3, 4, 5):
        fam = ForbiddenFamily(k, k - 1)
        for n in range(k, 9):
            multi = max_size_multigraph(n, fam).value
            simple = max_size_simple(n, fam).value
            girth = max_size_girth(n, k).value
            marker = "" if multi == simple == girth else "  <-- MISMATCH"
            print(f"  {n:>3} {k:>3} {multi:>6} {simple:>7} {girth:>6}{marker}")

    print()
    res = max_size_girth(8, 4)
    print(f"Witness for the densest girth-5 graph on 8 vertices ({res.value} edges):")
    print(f"  {sorted(res.witness.edges())}")


if __name__ == "__main__":
    main()
