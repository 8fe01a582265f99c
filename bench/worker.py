"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED PASS TRACE SPAWNED_AT

``run.py`` starts this script once per pass so that the process-wide
``lru_cache``s of the oracles start cold every time.  SPAWNED_AT is the
parent's ``time.monotonic()`` just before it started this process; set-up
time runs from there to the first timed call and so covers interpreter
start, ``import lrcdist`` and input generation.  Each operation is timed
alone, one after another (a single closed-loop caller), and its time is
rescaled to reference speed with the reference loops run around it.
Answers are checked only after the timed region ends.  The last line of
standard output is one JSON object describing the pass.
"""

from __future__ import annotations

import bisect
import json
import random
import resource
import statistics
import sys
import time
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"

# golden-ratio step: pass j of a run moves every stratum's draw by j * PHI,
# so the passes of one run spread evenly over each stratum
PHI = (5**0.5 - 1) / 2

# Reference loop: fixed pure-Python work run between operations, every
# CALIBRATE_EVERY_S of operation time.  Its duration tracks the machine's
# current speed, which on shared virtual machines drifts by tens of percent
# within minutes.  Every time is rescaled to the speed at which the loop
# takes REFERENCE_LOOP_S (about its median between operations on a 2-vCPU
# machine with Python 3.11).
REFERENCE_LOOP_S, CALIBRATE_EVERY_S = 0.003, 0.05

SWEEP_N_MAX, SWEEP_R_MAX = 60, 8
AUDIT_N_MAX, AUDIT_R_MAX, AUDIT_N1_MAX = 60, 10, 8
RULE_CHAIN = ((41, 25, 7), (55, 29, 8), (55, 36, 8), (71, 33, 9), (71, 41, 9), (71, 49, 9), (92, 55, 12))
CODES_PER_PASS, WORDS_PER_CODE = 90, 16


def valid_triples(n_max: int, r_max: int):
    """(n, k, r) with 1 <= r <= k < n and n - k >= ceil(k / r), lexicographic."""
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for r in range(1, min(k, r_max) + 1):
                if n - k >= -(-k // r):
                    yield n, k, r


def family_key(n: int, k: int, r: int) -> tuple[int, int, int, int]:
    k1 = -(-k // r)
    n1 = -(-n // (r + 1))
    return n1, n1 * (r + 1) - n, k1, k1 * r - k


def load(name: str):
    return json.loads((REFERENCE / name).read_text())


def decision_answer(d) -> list:
    value = list(d.value) if isinstance(d.value, tuple) else d.value
    return [value, d.status, d.rule]


# ---------------------------------------------------------------- sweep, oracle


def sweep_inputs(seed: int, pass_index: int):
    return [(n, k, r, False) for n, k, r in valid_triples(SWEEP_N_MAX, SWEEP_R_MAX)]


def audit_triples():
    """One (n, k, r) per distinct (n1, n2, k1, k2) with n1 <= AUDIT_N1_MAX, first seen."""
    seen = set()
    for n, k, r in valid_triples(AUDIT_N_MAX, AUDIT_R_MAX):
        key = family_key(n, k, r)
        if key[0] <= AUDIT_N1_MAX and key not in seen:
            seen.add(key)
            yield n, k, r


def oracle_inputs(seed: int, pass_index: int):
    """Part (a): the rule audit, oracle only.  Part (b): the rule chain on girth-oracle keys."""
    return [(n, k, r, True) for n, k, r in audit_triples()] + [(n, k, r, False) for n, k, r in RULE_CHAIN]


def decide_op(lrcdist, item):
    n, k, r, audit = item
    p = lrcdist.derive_params(n, k, r)
    return lrcdist.decide(p, AUDIT_N1_MAX, use_rules=False) if audit else lrcdist.decide(p)


def check_decisions(reference_file: str):
    """Failures against the reference, which lists the inputs in the same order."""

    def check(items, outputs) -> int:
        reference = load(reference_file)
        failed = abs(len(reference) - len(items))
        for (n, k, r, _), out, row in zip(items, outputs, reference):
            if isinstance(out, Exception) or [n, k, r, *decision_answer(out)] != row:
                failed += 1
        return failed

    return check


# ---------------------------------------------------------------------- codes


def distance_cost(n: int, k: int, d_star: int) -> int:
    """Column-subset work of the exhaustive distance check, used to stratify draws."""
    return sum(comb(n, w) * w * (n - k) for w in range(1, d_star))


def codes_inputs(seed: int, pass_index: int):
    """One draw per stratum of the population sorted by distance-check cost, with
    the construction seed, WORDS_PER_CODE messages and one erasure per word."""
    population = sorted(load("codes_population.json"), key=lambda t: (distance_cost(t[0], t[1], t[3]), t))
    strata = random.Random(seed)
    offsets = [strata.random() for _ in range(CODES_PER_PASS)]
    rng = random.Random(f"{seed}:{pass_index}")
    size = len(population)
    items = []
    for i, u in enumerate(offsets):
        lo, hi = i * size // CODES_PER_PASS, (i + 1) * size // CODES_PER_PASS
        n, k, r, d_star = population[lo + int(((u + pass_index * PHI) % 1.0) * (hi - lo))]
        # messages are drawn below 2**31 and reduced mod q by encode
        messages = [[rng.randrange(2**31) for _ in range(k)] for _ in range(WORDS_PER_CODE)]
        erasures = [rng.randrange(n) for _ in range(WORDS_PER_CODE)]
        items.append(((n, k, r), d_star, rng.randrange(2**31), messages, erasures))
    return items


def code_op(lrcdist, item):
    """Build a verified code, write codewords with it and read each back with one
    symbol erased."""
    nkr, _, seed, messages, erasures = item
    code = lrcdist.construct_optimal_lrc(lrcdist.derive_params(*nkr), seed=seed)
    words = []
    for message, j in zip(messages, erasures):
        word = lrcdist.encode(code, message)
        received = word.tolist()
        received[j] = None
        words.append((word, lrcdist.repair_symbol(code, received)))
    return code, words


def locality_ok(h: list[list[int]], r: int) -> bool:
    """Every column has a nonzero entry in some row of weight <= r + 1."""
    rows = [row for row in h if sum(1 for x in row if x) <= r + 1]
    return all(any(row[j] for row in rows) for j in range(len(h[0])))


def code_ok(item, out) -> bool:
    (n, k, r), d_star, _, _, erasures = item
    if isinstance(out, Exception):
        return False
    code, words = out
    h, q = code.H.tolist(), code.field.q
    if not (code.verified and code.claimed_distance == d_star and code.H.shape == (n - k, n)):
        return False
    if not locality_ok(h, r):
        return False
    for (word, repaired), j in zip(words, erasures):
        c = word.tolist()
        if len(c) != n or any(sum(a * b for a, b in zip(row, c)) % q for row in h) or repaired != c[j]:
            return False
    return True


def check_codes(items, outputs) -> int:
    return sum(not code_ok(item, out) for item, out in zip(items, outputs))


def reference_loop(clock) -> float:
    """Seconds taken right now by fixed work: integer arithmetic, then tuples,
    a dict and a sort, so that it slows down with numeric and with
    object-heavy code alike."""
    start = clock()
    total = 0
    for i in range(20_000):
        total += i * i
    counts, rows = {}, []
    for i in range(1_500):
        row = (i, i * 7 % 13, str(i & 7))
        counts[row[1]] = counts.get(row[1], 0) + i
        rows.append(row)
    rows.sort(key=lambda row: (row[1], -row[0]))
    return clock() - start


def speed_factors(loops: list[float], loop_before: list[int]) -> list[float]:
    """Per operation: REFERENCE_LOOP_S over the median of the five loops around it."""
    return [
        REFERENCE_LOOP_S / statistics.median(loops[max(0, j - 2) : j + 3])
        for j in loop_before
    ]


# workload -> (input generation, operation, count of failed operations)
WORKLOADS = {
    "sweep": (sweep_inputs, decide_op, check_decisions("sweep.json")),
    "oracle": (oracle_inputs, decide_op, check_decisions("oracle.json")),
    "codes": (codes_inputs, code_op, check_codes),
}


def main(argv: list[str]) -> int:
    workload, seed, pass_index, trace, spawned_at = argv
    seed, pass_index, trace, spawned_at = int(seed), int(pass_index), trace == "1", float(spawned_at)
    import lrcdist

    if Path(lrcdist.__file__).resolve().parent != ROOT / "src" / "lrcdist":
        print(f"imported lrcdist from {lrcdist.__file__}, not from this checkout", file=sys.stderr)
        return 2
    make_inputs, op, check = WORKLOADS[workload]
    items = make_inputs(seed, pass_index)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    outputs, starts, latencies, loops, loop_before = [], [], [], [], []
    setup_s = time.monotonic() - spawned_at
    since_loop = CALIBRATE_EVERY_S
    for item in items:
        if since_loop >= CALIBRATE_EVERY_S:
            loops.append(reference_loop(clock))
            since_loop = 0.0
        start = clock()
        try:
            out = op(lrcdist, item)
        except Exception as exc:  # a failed operation is counted, never fatal
            out = exc
        latency = clock() - start
        since_loop += latency
        starts.append(start)
        latencies.append(latency)
        loop_before.append(len(loops) - 1)
        outputs.append(out)
    loops.append(reference_loop(clock))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    factors = speed_factors(loops, loop_before)
    pass_factor = REFERENCE_LOOP_S / statistics.median(loops)
    result = {
        "ops": len(items),
        "raw_busy_s": sum(latencies),
        "raw_setup_s": setup_s,
        "speed": pass_factor,
        "busy_s": sum(x * f for x, f in zip(latencies, factors)),
        "setup_s": setup_s * pass_factor,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [x * f for x, f in zip(latencies, factors)],
        "failed": check(items, outputs),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(lambda t: factors[max(bisect.bisect_right(starts, t) - 1, 0)])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
