"""Command-line interface.

Exit codes: 0 success/exact, 2 bad input, 3 unresolved decision,
4 optimum not achievable, 5 construction retries exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

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
from .extremal import ExtremalResult
from .multigraph import ForbiddenFamily, multigraph_to_json
from .params import derive_params

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNRESOLVED = 3
EXIT_NOT_ACHIEVABLE = 4
EXIT_RETRIES = 5


def _env_oracle_limit() -> int:
    raw = os.environ.get("LRC_ORACLE_LIMIT")
    if raw is None:
        return DEFAULT_ORACLE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise BadArgs(f"LRC_ORACLE_LIMIT must be an integer, got {raw!r}") from None


def _decision_dict(d: Decision) -> dict:
    p = d.params
    witness = multigraph_to_json(d.witness) if d.witness is not None else None
    return {
        "n": p.n,
        "k": p.k,
        "r": p.r,
        "n1": p.n1,
        "n2": p.n2,
        "k1": p.k1,
        "k2": p.k2,
        "d_star": p.d_star,
        "value": list(d.value) if isinstance(d.value, tuple) else d.value,
        "status": d.status,
        "rule": d.rule,
        "witness": witness,
        "witness_almost_regular": (
            d.witness.is_almost_regular() if d.witness is not None else None
        ),
        "notes": list(d.notes),
    }


def cmd_decide(args) -> int:
    params = derive_params(args.n, args.k, args.r)
    decision = decide(params, oracle_limit=args.oracle_limit)
    print(json.dumps(_decision_dict(decision), indent=2))
    return EXIT_OK if decision.status == "exact" else EXIT_UNRESOLVED


def cmd_construct(args) -> int:
    params = derive_params(args.n, args.k, args.r)
    field = codec.PrimeField(args.field) if args.field is not None else None
    code = codec.construct_optimal_lrc(
        params,
        field=field,
        seed=args.seed,
        max_retries=args.retries,
        oracle_limit=args.oracle_limit,
    )
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
    except (OSError, json.JSONDecodeError, LrcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    p = code.params
    results = {}
    rank = codec.gf.rank_mod(code.H, code.field.q)
    results["full_rank"] = rank == p.n - p.k
    results["locality"] = codec.verify_locality(code)
    if results["full_rank"]:
        d = codec.min_distance(code)
        results["distance_matches_claim"] = d == code.claimed_distance
        results["distance"] = d
    else:
        results["distance_matches_claim"] = False
        results["distance"] = None
    ok = results["full_rank"] and results["locality"] and results["distance_matches_claim"]
    for name in ("full_rank", "locality", "distance_matches_claim"):
        print(f"{name}: {'pass' if results[name] else 'FAIL'}")
    print(f"measured_distance: {results['distance']}")
    return EXIT_OK if ok else 1


def _oracle_result_dict(res: ExtremalResult) -> dict:
    return {
        "value": res.value,
        "witness": multigraph_to_json(res.witness),
        "exhaustive": res.exhaustive,
    }


def cmd_oracle(args) -> int:
    if args.kind in ("eX", "ex"):
        if args.forbid_order is None or args.forbid_size is None:
            raise BadArgs("--forbid-order and --forbid-size are required for eX/ex")
        family = ForbiddenFamily(order=args.forbid_order, max_size=args.forbid_size)
        if args.kind == "eX":
            res = extremal.max_size_multigraph(args.vertices, family)
        else:
            res = extremal.max_size_simple(args.vertices, family)
    else:
        if args.girth_k is None:
            raise BadArgs("--girth-k is required for girth-ex")
        res = extremal.max_size_girth(args.vertices, args.girth_k)
    print(json.dumps(_oracle_result_dict(res), indent=2))
    return EXIT_OK


def _sweep_rows(n_max: int, r_max: int, oracle_limit: int):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for r in range(1, min(k, r_max) + 1):
                try:
                    params = derive_params(n, k, r)
                except InvalidParams:
                    continue
                d = decide(params, oracle_limit=oracle_limit)
                if d.status == "exact":
                    value = d.value
                    value_csv = str(d.value)
                else:
                    value = list(d.value)
                    value_csv = f"{d.value[0]}..{d.value[1]}"
                almost = d.witness.is_almost_regular() if d.witness is not None else None
                yield {
                    "n": n,
                    "k": k,
                    "r": r,
                    "n1": params.n1,
                    "n2": params.n2,
                    "k1": params.k1,
                    "k2": params.k2,
                    "d_star": params.d_star,
                    "value": value,
                    "value_csv": value_csv,
                    "status": d.status,
                    "rule": d.rule,
                    "witness_almost_regular": almost,
                }


_SWEEP_FIELDS = [
    "n", "k", "r", "n1", "n2", "k1", "k2", "d_star",
    "value", "status", "rule", "witness_almost_regular",
]


def cmd_sweep(args) -> int:
    rows = list(_sweep_rows(args.n_max, args.r_max, args.oracle_limit))
    if args.format == "json":
        payload = [{f: row[f] for f in _SWEEP_FIELDS} for row in rows]
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(_SWEEP_FIELDS)
        for row in rows:
            out = dict(row, value=row["value_csv"])
            almost = out["witness_almost_regular"]
            out["witness_almost_regular"] = "" if almost is None else str(almost).lower()
            writer.writerow([out[f] for f in _SWEEP_FIELDS])
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
            default=_env_oracle_limit(),
            help="largest n1 the exhaustive oracle may search (default %(default)s, "
            "env LRC_ORACLE_LIMIT)",
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
    add_limit(p_con)
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
            sp.add_argument("--girth-k", type=int, default=None)
        else:
            sp.add_argument("--forbid-order", type=int, default=None)
            sp.add_argument("--forbid-size", type=int, default=None)
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
