"""Benchmark lrcdist end to end, or per layer with --trace 1.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program under test is ``src/lrcdist``
of that checkout.  Every pass runs in a fresh single-threaded interpreter
(``worker.py``) as one closed-loop caller, so the oracles' process-wide
caches start cold.  With ``--trace 0`` passes repeat until ``--seconds``
is used up (at least MIN_PASSES) and the end-to-end metrics are computed
over all of them, in reference-speed seconds (see ``worker.py``).  With
``--trace 1`` the run makes one untraced pass and two traced passes with
the same inputs, reports the per-layer metrics, fails if the two traced
passes disagree on any count, and saves the metrics to
``bench/results/<workload>.json`` for ``bench/diff.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import COUNT_METRICS, LAYER_METRICS
from worker import BENCH, ROOT, WORKLOADS

RESULTS = BENCH / "results"
MIN_PASSES = 3
TIME_LIMIT_S = 170
# the tail is the latency with this many samples beyond it, per pass
TAIL_SAMPLES = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, deadline: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    spawned_at = time.monotonic()
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(pass_index), str(int(trace))]
    try:
        proc = subprocess.run(
            [*argv, repr(spawned_at)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - spawned_at, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {pass_index} of {workload} ran past the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"pass {pass_index} of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(passes: list[dict]) -> tuple[dict, str]:
    """Metrics over all passes, and a line naming the tail percentile and sample count."""
    per_pass = passes[0]["ops"]
    latencies = sorted(x for p in passes for x in p["latencies_s"])
    beyond = TAIL_SAMPLES * len(passes)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": sum(p["ops"] for p in passes) / sum(p["busy_s"] for p in passes),
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": latencies[len(latencies) - beyond - 1] * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    percentile = 100 * (1 - TAIL_SAMPLES / per_pass)
    raw_ops_per_s = sum(p["ops"] for p in passes) / sum(p["raw_busy_s"] for p in passes)
    raw_setup_s = statistics.median(p["raw_setup_s"] for p in passes)
    speed = statistics.median(p["speed"] for p in passes)
    note = (
        f"tail_ms is p{percentile:.3f}: {beyond} of {len(latencies)} samples beyond it\n"
        f"  machine speed {speed:.4g} x reference; unscaled ops_per_s {raw_ops_per_s:.6g}, setup_s {raw_setup_s:.6g}"
    )
    return values, note


def layer_metrics(untraced: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Median per-layer metrics of the traced passes, and the counts on which they differ."""
    first = traced[0]["layers"]
    differing = [n for n in COUNT_METRICS if any(t["layers"][n] != first[n] for t in traced[1:])]
    values = {
        name: first[name] if unit == "count" else statistics.median(t["layers"][name] for t in traced)
        for name, unit in LAYER_METRICS.items()
        if name != "trace.overhead_frac"
    }
    traced_busy = statistics.median(t["busy_s"] for t in traced)
    values["trace.overhead_frac"] = (traced_busy - untraced["busy_s"]) / untraced["busy_s"]
    return values, differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lrcdist" / "__init__.py").is_file():
        print(f"no lrcdist sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    try:
        if args.trace:
            passes = [run_pass(args.workload, args.seed, 0, trace, deadline) for trace in (False, True, True)]
        else:
            passes = []
            while True:
                passes.append(run_pass(args.workload, args.seed, len(passes), False, deadline))
                elapsed = time.monotonic() - start
                next_end = elapsed * (len(passes) + 1) / len(passes)
                if next_end > TIME_LIMIT_S - 10 or (len(passes) >= MIN_PASSES and next_end > args.seconds):
                    break
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}")
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} outputs)")
    if args.trace:
        values, differing = layer_metrics(passes[0], passes[1:])
        if differing:
            correct = False
            print(f"  counts differ between two traced passes: {', '.join(differing)}")
        units = LAYER_METRICS
        RESULTS.mkdir(exist_ok=True)
        saved = {"workload": args.workload, "seed": args.seed, "metrics": values}
        (RESULTS / f"{args.workload}.json").write_text(json.dumps(saved, indent=1) + "\n")
    else:
        values, note = end_to_end(passes)
        units = END_TO_END
        print(f"  {note}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
