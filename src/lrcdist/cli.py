"""Command-line interface.

Exit codes: 0 success/exact, 2 bad input, 3 unresolved decision,
4 optimum not achievable, 5 construction retries exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain, groupby, islice
from operator import itemgetter

from . import codec, extremal
from .decider import DEFAULT_ORACLE_LIMIT, Decision, decide
from .errors import (
    BadArgs,
    EnvelopeExceeded,
    InvalidParams,
    LrcError,
    NotAchievable,
    RetriesExhausted,
    UnboundedFamily,
)
from .multigraph import ForbiddenFamily
from .params import CodeParams, derive_params

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNRESOLVED = 3
EXIT_NOT_ACHIEVABLE = 4
EXIT_RETRIES = 5


_RECORD_FIELDS = (*CodeParams._fields, "value", "status", "rule", "witness_almost_regular")
_CSV_FLAG = {True: "true", False: "false", None: ""}


def _decision_row(d: Decision) -> tuple:
    """The decision as ``decide`` and ``sweep`` report it, one cell per ``_RECORD_FIELDS``."""
    w = d.witness
    return (*d.params, d.value, d.status, d.rule, w.is_almost_regular() if w is not None else None)


def cmd_decide(args) -> int:
    params = derive_params(args.n, args.k, args.r)
    decision = decide(params, oracle_limit=args.oracle_limit)
    *cells, almost = _decision_row(decision)
    # the witness goes just before its regularity flag, the notes last
    _print_record(dict(zip(_RECORD_FIELDS, cells), witness=decision.witness,
                       witness_almost_regular=almost, notes=decision.notes))
    return EXIT_OK if decision.status == "exact" else EXIT_UNRESOLVED


def cmd_construct(args) -> int:
    params = derive_params(args.n, args.k, args.r)
    field = codec.PrimeField(args.field) if args.field is not None else None
    code = codec.construct_optimal_lrc(params, field=field, seed=args.seed, max_retries=args.retries)
    out = args.out or f"lrc_{args.n}_{args.k}_{args.r}.json"
    with open(out, "w") as fh:
        json.dump(codec.code_to_json(code), fh)
        fh.write("\n")
    print(f"wrote {out}")
    print(f"q={code.field.q} attempts={code.attempts} distance={code.claimed_distance}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.code) as fh:
            data = json.load(fh)
        code = codec.code_from_json(data)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError, LrcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    full_rank, locality, distance = codec.verify_code(code)
    checks = {
        "full_rank": full_rank,
        "locality": locality,
        "distance_matches_claim": full_rank and distance == code.claimed_distance,
    }
    for name, passed in checks.items():
        print(f"{name}: {'pass' if passed else 'FAIL'}")
    print(f"measured_distance: {distance}")
    return EXIT_OK if all(checks.values()) else 1


def _print_record(record: dict):
    """Print ``record`` as ``json.dumps(record, indent=2)`` writes it, with its
    witness, a Multigraph or None, as ``{"order": N, "edges": [[u, v], ...]}``.

    The edge list is written a pair at a time, one formatted edge repeated
    by the pair's multiplicity: the indenting encoder is pure Python and
    took seconds and hundreds of MB on a witness of 600,000 edges.  A witness
    of more than ``extremal.WITNESS_EDGE_LIMIT`` edges raises EnvelopeExceeded
    before anything is written.
    """
    w = record["witness"]
    if w is not None:
        if w.size > extremal.WITNESS_EDGE_LIMIT:
            raise EnvelopeExceeded(
                f"a witness of {w.size} edges exceeds the limit of {extremal.WITNESS_EDGE_LIMIT} edges"
            )
        # "\0", encoded "\u0000", marks the edge list: no other field holds it
        record = {**record, "witness": {"order": w.order, "edges": "\0"}}
    head, _, tail = json.dumps(record, indent=2).partition(json.dumps("\0"))
    out = sys.stdout
    out.write(head)
    if w is not None:
        opening = "[\n"
        for (u, v), m in w.pair_multiplicities():
            out.write(opening + ",\n".join([f"      [\n        {u},\n        {v}\n      ]"] * m))
            opening = ",\n"
        out.write("\n    ]" if w.size else "[]")
    out.write(tail + "\n")


def cmd_oracle(args) -> int:
    if args.kind in ("eX", "ex"):
        family = ForbiddenFamily(order=args.forbid_order, max_size=args.forbid_size)
        if args.kind == "eX":
            res = extremal.max_size_multigraph(args.vertices, family)
        else:
            res = extremal.max_size_simple(args.vertices, family)
    else:
        res = extremal.max_size_girth(args.vertices, args.girth_k)
    _print_record({"value": res.value, "witness": res.witness})
    return EXIT_OK


def _sweep_decisions(n_max: int, r_max: int, oracle_limit: int):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for r in range(1, min(k, r_max) + 1):
                try:
                    params = derive_params(n, k, r)
                except InvalidParams:
                    continue
                yield decide(params, oracle_limit=oracle_limit)


def _csv_row(row: tuple) -> tuple:
    """``row`` with its interval as ``lo..hi`` and its flag as true, false or empty."""
    *params, value, status, rule, almost = row
    if isinstance(value, tuple):
        value = f"{value[0]}..{value[1]}"
    return (*params, value, status, rule, _CSV_FLAG[almost])


def cmd_sweep(args) -> int:
    rows = map(_decision_row, _sweep_decisions(args.n_max, args.r_max, args.oracle_limit))
    rows = chain(list(islice(rows, 1)), rows)  # decided before any output: a bad limit prints nothing
    if args.format == "json":
        # json.dumps(records, indent=2) a length's records at a time, each slice without
        # its "[" and "\n]"; one dumps call per record took a quarter longer
        opening = "["
        for _, group in groupby(rows, key=itemgetter(0)):
            records = [dict(zip(_RECORD_FIELDS, row)) for row in group]
            sys.stdout.write(opening + json.dumps(records, indent=2)[1:-2])
            opening = ","
        print("[]" if opening == "[" else "\n]")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(_RECORD_FIELDS)
        writer.writerows(map(_csv_row, rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcdist",
        description="Decide the best achievable distance of locally recoverable codes "
        "and construct verified optimal codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nkr(p):
        p.add_argument("--n", type=int, required=True, help="codeword length")
        p.add_argument("--k", type=int, required=True, help="dimension")
        p.add_argument("--r", type=int, required=True, help="locality")

    def add_limit(p):
        p.add_argument(
            "--oracle-limit",
            type=int,
            default=DEFAULT_ORACLE_LIMIT,
            help="largest n1 the family search may run at (default %(default)s)",
        )

    p_decide = sub.add_parser("decide", help="resolve the best achievable distance")
    add_nkr(p_decide)
    add_limit(p_decide)
    p_decide.set_defaults(func=cmd_decide)

    p_con = sub.add_parser("construct", help="build and verify an optimal code")
    add_nkr(p_con)
    p_con.add_argument("--field", type=int, default=None, help="prime field order")
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--retries", type=int, default=16)
    p_con.add_argument("--out", type=str, default=None, help="output code JSON path")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="re-verify a code file")
    p_ver.add_argument("--code", type=str, required=True, help="path to code JSON")
    p_ver.set_defaults(func=cmd_verify)

    p_or = sub.add_parser("oracle", help="exact extremal-graph oracles")
    or_sub = p_or.add_subparsers(dest="kind", required=True)
    for kind, label in (
        ("eX", "max size of a family-free multigraph"),
        ("ex", "max size of a family-free simple graph"),
        ("girth-ex", "max size of a simple graph with girth > k"),
    ):
        sp = or_sub.add_parser(kind, help=label)
        sp.add_argument("--vertices", type=int, required=True)
        if kind == "girth-ex":
            sp.add_argument("--girth-k", type=int, required=True)
        else:
            sp.add_argument("--forbid-order", type=int, required=True)
            sp.add_argument("--forbid-size", type=int, required=True)
        sp.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="decide every (n, k, r) in a range")
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--r-max", type=int, required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    add_limit(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidParams, BadArgs, EnvelopeExceeded, UnboundedFamily, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotAchievable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ACHIEVABLE
    except RetriesExhausted as exc:
        print(f"error: {exc} (attempts={exc.attempts})", file=sys.stderr)
        return EXIT_RETRIES


if __name__ == "__main__":
    raise SystemExit(main())
