"""Regenerate the committed reference answers under bench/reference/.

    PYTHONPATH=src python3 bench/make_reference.py

Writes the expected [n, k, r, value, status, rule] of every sweep and
oracle decision, and the [n, k, r, d*] population the codes and storage
workloads draw from.  Every answer with n1 <= 8 is cross-checked against
the other route (the exhaustive oracle for rule answers, the rule chain
for oracle answers), so a reference never rests on one route alone.  Run
it only at a commit whose answers are trusted; a run elsewhere would bless
that commit's answers.
"""

from __future__ import annotations

import json
import sys

from worker import (
    AUDIT_N1_MAX,
    REFERENCE,
    RULE_CHAIN,
    SWEEP_N_MAX,
    SWEEP_R_MAX,
    audit_triples,
    decision_answer,
    valid_triples,
)

import lrcdist

CODES_N_MAX, CODES_D_MIN, CODES_D_MAX = 20, 2, 8


def attains_d_star(d) -> bool:
    if d.status != "exact":
        raise SystemExit(f"unresolved decision {d.params}: no reference")
    return d.value == d.params.d_star


def cross_check(d, audited: bool):
    """Compare with the other route when n1 <= AUDIT_N1_MAX; stop on any disagreement."""
    p = d.params
    if p.n1 > AUDIT_N1_MAX:
        return
    other = lrcdist.decide(p) if audited else lrcdist.decide(p, AUDIT_N1_MAX, use_rules=False)
    if attains_d_star(other) != attains_d_star(d):
        raise SystemExit(f"rule chain and oracle disagree on {p}")


def row(n: int, k: int, r: int, audited: bool = False) -> list:
    p = lrcdist.derive_params(n, k, r)
    d = lrcdist.decide(p, AUDIT_N1_MAX, use_rules=False) if audited else lrcdist.decide(p)
    cross_check(d, audited)
    return [n, k, r, *decision_answer(d)]


def write(name: str, rows: list):
    body = ",\n".join(json.dumps(r) for r in rows)
    (REFERENCE / name).write_text(f"[\n{body}\n]\n")
    print(f"{name}: {len(rows)} rows", file=sys.stderr)


def main():
    REFERENCE.mkdir(exist_ok=True)
    write("sweep.json", [row(n, k, r) for n, k, r in valid_triples(SWEEP_N_MAX, SWEEP_R_MAX)])
    audit = [row(n, k, r, audited=True) for n, k, r in audit_triples()]
    write("oracle.json", audit + [row(n, k, r) for n, k, r in RULE_CHAIN])
    population = []
    for n, k, r in valid_triples(CODES_N_MAX, CODES_N_MAX):
        p = lrcdist.derive_params(n, k, r)
        if CODES_D_MIN <= p.d_star <= CODES_D_MAX and row(n, k, r)[3] == p.d_star:
            population.append([n, k, r, p.d_star])
    write("codes_population.json", population)


if __name__ == "__main__":
    main()
