"""One workload in one fresh interpreter: set up, run rounds, check.

Usage (normally started by run.py):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,run,trace} --t0 NS [--min-ops N]

``--t0`` is the ``time.monotonic_ns()`` reading the parent took just
before starting this interpreter, so ``setup_s`` covers interpreter
start, importing ``zdyn``, generating the seeded inputs and loading and
validating the first round's documents.  ``setup`` mode stops there.
``run`` mode then runs whole rounds until ``--seconds`` have passed and
at least ``--min-ops`` ops have completed;
``trace`` mode does the same with every ``zdyn`` layer wrapped in spans.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Peak memory is read when this many rounds are done, so that a faster
# program, which fits more rounds into the same seconds, does not read
# as a memory regression.
RSS_ROUNDS = 4


def import_zdyn():
    """The layer modules of the ``zdyn`` in this checkout, and no other."""
    sys.path.insert(0, SRC)
    try:
        import zdyn
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import zdyn from {SRC}: {exc}")
    if not os.path.abspath(zdyn.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: zdyn comes from {zdyn.__file__}, not from {SRC}")
    import tracer

    return {layer: importlib.import_module(f"zdyn.{layer}") for layer in tracer.LAYERS}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--min-ops", type=int, default=0, help="completed ops to reach")
    args = parser.parse_args()

    modules = import_zdyn()
    import tracer as tracing
    import workloads

    spans = tracing.Tracer(modules) if args.mode == "trace" else None
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](types.SimpleNamespace(**modules), args.seed, workdir)
        ops = wl.round()
        setup_s = (time.monotonic_ns() - args.t0) / 1e9
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            result.update(measure(wl, ops, args.seconds, args.min_ops, spans))
        if spans is not None:
            result["layers"] = spans.metrics(result["attempted"])
            stem = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}")
            spans.dump(stem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(wl, ops, seconds: float, min_ops: int, spans) -> dict:
    """Run whole rounds until ``seconds`` pass and ``min_ops`` completed."""
    clock = time.perf_counter_ns
    deadline = time.monotonic() + seconds
    times, wrong, failed_variants = [], [], []
    counters: dict = {}
    attempted = rounds = 0
    rss_mb = None
    while True:
        for op in ops:
            attempted += 1
            # Earlier ops' cached objects stay out of this op's collections,
            # as they would be in a fresh zdyn process.
            gc.collect()
            gc.freeze()
            if spans is not None:
                spans.begin(attempted)
            t = clock()
            try:
                out = op.run()
                raised = False
            except Exception:  # a crash is a failed op, counted and reported
                raised = True
            elapsed = clock() - t
            if spans is not None:
                spans.finish()
            if raised or op.failed(out):
                failed_variants.append(op.variant)
                continue
            times.append(elapsed)
            try:
                for key, value in op.check(out).items():
                    counters[key] = counters.get(key, 0) + value
            except Exception as exc:  # any error in a check is a wrong output
                wrong.append(f"{op.variant}: {type(exc).__name__}: {exc}")
        rounds += 1
        if rounds == RSS_ROUNDS:
            rss_mb = peak_rss_mb()
        if time.monotonic() >= deadline and len(times) >= min_ops:
            break
        ops = wl.round()
    return {
        "op_ns": times,
        "attempted": attempted,
        "failed": len(failed_variants),
        "failed_variants": sorted(set(failed_variants)),
        "wrong": wrong[:20],
        "peak_rss_mb": rss_mb if rss_mb is not None else peak_rss_mb(),
        "counters": counters,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
