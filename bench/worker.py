"""One run of one workload, in a fresh interpreter started by ``run.py``.

Usage: python3 bench/worker.py WORKLOAD SEED ROUNDS TRACE [TRACE_FILE]

Builds the workload's operation list, times each operation alone
(bracketed by runs of the reference kernel, see ``refclock.py``), reads
peak memory, and only then checks the outputs.  With TRACE=1 the run
records spans around iterqm's public functions and reports per-layer
figures instead of latencies.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import refclock  # noqa: E402  (imports below need the path set above)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Functions whose calls and self time the traced run reports.
LAYER_FUNCTIONS = (
    "qseries.mul",
    "qseries.primitive",
    "quasimodular.expand",
    "quasimodular.decompose",
    "iterint.iter_integral",
    "canonicalize.reduce_letters",
    "shuffle_lyndon.to_lyndon_basis",
    "canonicalize.rational_rank",
    "expr.parse",
    "cli.main",
    "cocycles.eichler_integral",
    "cocycles.slash_poly",
    "cocycles.e2_cocycle",
    "cocycles.b3_to_sl2",
)
#: The functools caches of iterqm's modules when the benchmark was written;
#: a cache that is gone reads as empty, and any new one goes to the per-run
#: record only, under "other_caches".
LAYER_CACHES = (
    "bernoulli",
    "eisenstein_qexp",
    "_gen_power",
    "_iter_integral",
    "_shuffle_words",
    "_shuffle",
    "_to_lyndon_basis",
)


def output_figures(name: str, outputs: list) -> dict:
    """Coefficient size of the integral series and monomials of the canonical forms."""
    bits, monomials = 0, 0
    if name == "soundness":
        for out in outputs:
            if out is None:
                continue
            canonical, integral = json.loads(out[0]), json.loads(out[1])
            monomials += len(canonical["terms"])
            for term in integral["terms"]:
                c = Fraction(term["coeff"])
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"series.max_coeff_bits": bits, "canonical.monomials": monomials}


def main(argv: list[str]) -> int:
    name, seed, rounds, traced = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    workload = WORKLOADS[name]
    ops = workload.inputs(seed, rounds)
    caches = tracing.find_caches()
    tracer = tracing.Tracer() if traced else None

    if tracer:
        tracer.install()
    times, outputs, failures, kernel = [], [], [], []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        gc.collect()  # every operation starts from the same collector state
        kernel.append(refclock.kernel_seconds())
        t0 = perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # counted and reported, never hidden
            out = None
            failures.append({"op": i, "error": type(exc).__name__, "message": str(exc)[:200]})
        times.append(perf_counter() - t0)
        outputs.append(out)
    kernel.append(refclock.kernel_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "traced": traced,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "op_wall_s": times,
        "kernel_s": kernel,
        "op_s": [refclock.scaled(t, kernel[i], kernel[i + 1]) for i, t in enumerate(times)],
        "ok": [out is not None for out in outputs],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        layers = {}
        summary = tracer.summary()
        for fn in LAYER_FUNCTIONS:
            calls, secs = summary.get(fn, (0, 0.0))
            layers[f"{fn}.calls"] = calls
            layers[f"{fn}.self_ms"] = secs * 1e3
        for cname in LAYER_CACHES:
            info = caches[cname].cache_info() if cname in caches else None
            lookups = info.hits + info.misses if info else 0
            layers[f"cache.{cname}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            layers[f"cache.{cname}.entries"] = info.currsize if info else 0
        result["other_caches"] = {
            cname: caches[cname].cache_info()._asdict()
            for cname in sorted(set(caches) - set(LAYER_CACHES))
        }
        layers.update(output_figures(name, outputs))
        result["layers"] = layers
        result["spans"] = len(tracer.start)
        if len(argv) > 4:
            tracer.write(argv[4])

    problems = workload.check(ops, outputs)
    result["correct"] = not problems
    result["problems"] = problems[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
