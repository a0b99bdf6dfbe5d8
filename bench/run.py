"""Run one workload of the iterqm benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload soundness|certify|cocycle \
        --seed N --seconds S --trace 0|1

The workload runs in a fresh interpreter (``worker.py``) with the hash
seed pinned.  ``--seconds`` fixes how many rounds of the workload's fixed
operation list are done (one round per ROUND_SECONDS); it is never used
as a deadline, so every run with the same arguments does the same work.
With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  The
full record of each run goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("soundness", "certify", "cocycle")

#: Seconds of ``--seconds`` per round of a workload's operation list; the
#: timed loop of one round took 11-19 s of wall time where it was tuned.
ROUND_SECONDS = 15
#: Fresh interpreters whose ``import iterqm`` time gives setup_s (after one
#: discarded start that writes the bytecode caches).
SETUP_SAMPLES = 7
#: Seconds a child may run before it is stopped and the run fails.
CHILD_TIMEOUT = 160
#: Operations that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("ITERQM_DEFAULT_N", None)
    return env


def setup_seconds() -> list[float]:
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, str(BENCH / "refclock.py"), str(ROOT / "src")],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
        )
        if i:
            samples.append(float(out.stdout.split()[0]))
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """The value with TAIL_BEYOND values above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "iterqm" / "__init__.py").is_file():
        print(f"error: no iterqm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rounds = max(1, math.floor(args.seconds / ROUND_SECONDS + 0.5))

    setup = [] if args.trace else setup_seconds()
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed), str(rounds),
           str(args.trace)]
    if args.trace:
        cmd.append(str(RESULTS / f"spans-{stem}.tsv"))
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.splitlines()[-1])

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in record["layers"].items()}
    else:
        times = record["op_s"]
        done = [t for t, ok in zip(times, record["ok"]) if ok]
        tail_s, pct = tail(done)
        record["tail_percentile"] = pct
        record["setup_samples"] = setup
        values = {
            "ops_per_s": len(done) / sum(times),
            "op_p50_ms": statistics.median(done) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    record["metrics"] = metrics
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
