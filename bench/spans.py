"""Per-layer spans recorded around lrcdist's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper at every
name inside the ``lrcdist`` package that is bound to it.  Callers that
imported a name at import time (``decider`` binds ``k_density`` and
``is_family_free``; ``codec`` binds ``decide``, ``graph_to_pruned`` and
``p2f``; the package binds everything it exports) would otherwise keep
calling the unwrapped function and their work would go unattributed.

Spans stay in memory while the pass runs; ``layer_metrics`` folds them
into the per-layer metrics once the timed region is over.  A span's self
time is its duration minus the durations of the wrapped spans directly
inside it.
"""

from __future__ import annotations

import sys
import time
from math import comb

RULES = (
    "k1_eq_1",
    "divides",
    "n2_le_k2",
    "k2_zero",
    "k1_eq_2",
    "many_edges",
    "t_bound",
    "forest_k2_lt_k1m1",
    "real_n1m1",
    "mantel",
    "turan_sufficient",
    "forest_n2_lt_n1",
    "cycle_n2_eq_n1",
    "girth_k2_eq_k1m1",
    "oracle",
    "unresolved",
)

CONSTRUCTIONS = (
    "almost_regular",
    "realize",
    "balanced_forest",
    "saturated_pair_graph",
    "turan_graph",
    "cycle_graph",
)


def _rule(args, result):
    return result.rule


def _k_subsets(args, result):
    g, k = args
    return comb(g.order, k)


def _oracle_key_found(args, result):
    order, size, family = args
    return (order, size, family.order, family.max_size), result is not None


def _args_key(args, result):
    return args


def _batch_rows(args, result):
    return args[2].shape[0]


def _attempts(args, result):
    return result.attempts


# (module, function, span name, tag taken from the arguments and result)
TRACED = (
    ("params", "derive_params", "params.derive_params", None),
    ("decider", "decide", "decider.decide", _rule),
    *(("constructions", f, "constructions", None) for f in CONSTRUCTIONS),
    ("multigraph", "k_density", "multigraph.k_density", _k_subsets),
    ("extremal", "free_multigraph", "extremal.free_multigraph", _oracle_key_found),
    ("extremal", "max_size_girth", "extremal.max_size_girth", _args_key),
    ("extremal", "t_bound", "extremal.t_bound", None),
    ("tanner", "graph_to_pruned", "tanner.graph_to_pruned", None),
    ("tanner", "p2f", "tanner.p2f", None),
    ("gf", "batch_columns_independent", "gf.batch_columns_independent", _batch_rows),
    ("gf", "rref_mod", "gf.rref_mod", None),
    ("gf", "rank_mod", "gf.rank_mod", None),
    ("codec", "construct_optimal_lrc", "codec.construct_optimal_lrc", _attempts),
    ("codec", "min_distance", "codec.min_distance", None),
    ("codec", "build_parity_check", "codec.build_parity_check", None),
    ("codec", "default_field", "codec.default_field", None),
    ("codec", "verify_locality", "codec.verify_locality", None),
    ("codec", "encode", "codec.encode", None),
    ("codec", "repair_symbol", "codec.repair_symbol", None),
)

# Per-layer metrics and their units, in the order they are reported.
LAYER_METRICS = {
    "params.derive_params.calls": "count",
    "params.derive_params.self_s": "s",
    "decider.decide.calls": "count",
    "decider.decide.self_s": "s",
    **{f"decider.rule.{rule}": "count" for rule in RULES},
    "decider.self_checks": "count",
    "constructions.calls": "count",
    "constructions.self_s": "s",
    "multigraph.k_density.calls": "count",
    "multigraph.k_density.self_s": "s",
    "multigraph.k_density.subsets": "count",
    "extremal.free_multigraph.calls": "count",
    "extremal.free_multigraph.distinct": "count",
    "extremal.free_multigraph.found_s": "s",
    "extremal.free_multigraph.exhausted_s": "s",
    "extremal.max_size_girth.calls": "count",
    "extremal.max_size_girth.distinct": "count",
    "extremal.max_size_girth.self_s": "s",
    "extremal.t_bound.calls": "count",
    "extremal.t_bound.self_s": "s",
    "tanner.graph_to_pruned.self_s": "s",
    "tanner.p2f.self_s": "s",
    "gf.batch_columns_independent.calls": "count",
    "gf.batch_columns_independent.self_s": "s",
    "gf.batch_columns_independent.subsets": "count",
    "gf.rref_mod.calls": "count",
    "gf.rref_mod.self_s": "s",
    "gf.rank_mod.calls": "count",
    "codec.min_distance.calls": "count",
    "codec.min_distance.self_s": "s",
    "codec.build_parity_check.self_s": "s",
    "codec.default_field.self_s": "s",
    "codec.verify_locality.self_s": "s",
    "codec.attempts": "count",
    "codec.encode.self_s": "s",
    "codec.repair_symbol.self_s": "s",
    "trace.overhead_frac": "ratio",
}

COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit == "count")


class Tracer:
    """Spans of one pass: (name, parent index, start, end, self seconds, tag)."""

    def __init__(self):
        self.spans: list = []
        self._open: list[list] = []  # [span index, seconds spent in child spans]

    def _wrap(self, fn, name, tag):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1][0] if open_ else None
            frame = [index, 0.0]
            open_.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                open_.pop()
                if open_:
                    open_[-1][1] += end - start
                value = tag(args, result) if tag and returned else None
                spans[index] = (name, parent, start, end, end - start - frame[1], value)

        return traced

    def install(self):
        """Wrap every traced function at every name bound to it inside lrcdist."""
        modules = [m for n, m in list(sys.modules.items()) if n == "lrcdist" or n.startswith("lrcdist.")]
        for module, attr, name, tag in TRACED:
            original = getattr(sys.modules[f"lrcdist.{module}"], attr)
            wrapper = self._wrap(original, name, tag)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, binding, wrapper)
        # only the self-check inside decide is counted, not other callers
        decider = sys.modules["lrcdist.decider"]
        decider.is_family_free = self._wrap(decider.is_family_free, "decider.self_checks", None)

    def layer_metrics(self, speed) -> dict[str, float]:
        """Fold the recorded spans into the per-layer metrics (overhead excluded),
        with each self time multiplied by ``speed(span start)``."""
        out = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS.items()}
        del out["trace.overhead_frac"]
        oracle_keys, girth_keys = set(), set()
        for name, _, start, _, self_s, value in self.spans:
            self_s *= speed(start)
            if name == "decider.self_checks":
                out[name] += 1
            elif name == "codec.construct_optimal_lrc":
                out["codec.attempts"] += value or 0
            elif name == "extremal.free_multigraph":
                out[f"{name}.calls"] += 1
                if value is not None:
                    key, found = value
                    oracle_keys.add(key)
                    out[f"{name}.found_s" if found else f"{name}.exhausted_s"] += self_s
            else:
                out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
                out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
                if value is None:
                    continue
                if name == "decider.decide":
                    out[f"decider.rule.{value}"] = out.get(f"decider.rule.{value}", 0) + 1
                elif name == "extremal.max_size_girth":
                    girth_keys.add(value)
                else:
                    out[f"{name}.subsets"] += value
        out["extremal.free_multigraph.distinct"] = len(oracle_keys)
        out["extremal.max_size_girth.distinct"] = len(girth_keys)
        return {name: out[name] for name in LAYER_METRICS if name in out}
