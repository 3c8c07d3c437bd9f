"""Benchmark entry point for zdyn: adic-walk, krieger-sweep, check-batch.

    python3 perfbench/run.py                      # every workload, seed 1
    python3 perfbench/run.py --workload adic-walk --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload adic-walk --trace 1
    python3 perfbench/run.py --steady 10          # repeat on seeds 1..10

Each workload runs in fresh interpreters started from here (see
worker.py), one process and one thread at a time.  With ``--trace 0``
the last line of output is the end-to-end result; with ``--trace 1`` it
carries the per-layer metrics of a traced round instead.  The exit code
is 0 when every output checked out, 1 when one did not, and 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adic-walk", "krieger-sweep", "check-batch")

# Set-up runs this many extra times, each in its own interpreter; setup_s
# is the median of these and the measured run's own set-up.
SETUP_REPEATS = 4

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

CHILD_TIMEOUT = 170

# A measured run completes at least this many ops, so that ten lie beyond
# the 90th percentile even on a slow machine.
MIN_OPS = 100


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spawn(workload: str, seed: int, seconds: float, mode: str, min_ops: int = 0) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic_ns()
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--t0", str(t0), "--min-ops", str(min_ops),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode}: no result after {CHILD_TIMEOUT} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode}: exit {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups = [spawn(workload, seed, seconds, "setup")["setup_s"] for _ in range(SETUP_REPEATS)]
    r = spawn(workload, seed, seconds, "run", MIN_OPS)
    done = [t / 1e6 for t in r["op_ns"]]
    if len(done) < 2:
        raise BenchError(f"{workload}: only {len(done)} ops completed")
    values = {
        "setup_s": statistics.median(setups + [r["setup_s"]]),
        "ops_per_s": len(done) / (sum(done) / 1e3),
        "op_p50_ms": statistics.median(done),
        "op_p90_ms": statistics.quantiles(done, n=10)[8],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    return {
        "correct": not r["wrong"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "wrong": r["wrong"],
        "failed_variants": r["failed_variants"],
    }


def per_layer(workload: str, seed: int) -> dict:
    """One traced round, and the same round untraced for the slowdown."""
    plain = spawn(workload, seed, 0, "run")
    traced = spawn(workload, seed, 0, "trace")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
    probes = traced["counters"].get("unresolved_probes", 0)
    metrics["coverings.krieger_coverage.unresolved_probes"] = {
        "value": probes / traced["attempted"], "unit": "count"
    }
    spent = [sum(r["op_ns"]) for r in (plain, traced)]
    metrics["trace.slowdown"] = {"value": spent[1] / spent[0], "unit": "ratio"}
    return {
        "correct": not (plain["wrong"] or traced["wrong"]),
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "metrics": metrics,
        "wrong": plain["wrong"] + traced["wrong"],
        "failed_variants": traced["failed_variants"],
    }


def steady(workloads, seeds, seconds: float) -> dict:
    """Repeat each workload over the seeds; median and quartiles per metric."""
    summary = {}
    for w in workloads:
        runs = []
        for seed in seeds:
            r = end_to_end(w, seed, seconds)
            runs.append(r)
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in r["metrics"].items())
            print(f"{w} seed={seed} {shown} failed={r['failed']}/{r['attempted']}", flush=True)
        table = {}
        for k in UNITS:
            values = [r["metrics"][k]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            table[k] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
        shares = {r["failed"] / r["attempted"] for r in runs}
        summary[w] = {
            "metrics": table,
            "failed_share": sorted(shares),
            "correct": all(r["correct"] for r in runs),
        }
        for k, s in table.items():
            print(
                f"  {w}/{k}: median {s['median']:.4g} {UNITS[k]}"
                f"  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.2%}",
                flush=True,
            )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="N", help="runs per workload")
    args = parser.parse_args()
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.steady:
            seeds = range(args.seed, args.seed + args.steady)
            summary = steady(chosen, seeds, args.seconds)
            print(json.dumps(summary))
            return 0 if all(s["correct"] for s in summary.values()) else 1
        results = {}
        for w in chosen:
            if args.trace:
                results[w] = per_layer(w, args.seed)
            else:
                results[w] = end_to_end(w, args.seed, args.seconds)
            report(w, results[w])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        r = results[args.workload]
        line = {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        line = {w: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")} for w, r in results.items()}
    print(json.dumps(line))
    return 0 if all(r["correct"] for r in results.values()) else 1


def report(workload: str, r: dict) -> None:
    failed = ", ".join(r["failed_variants"])
    print(f"{workload}: attempted {r['attempted']} failed {r['failed']}" + (f" ({failed})" if failed else ""))
    for name, m in r["metrics"].items():
        print(f"  {workload}/{name} = {m['value']:.6g} {m['unit']}")
    for line in r["wrong"]:
        print(f"  WRONG {line}")


if __name__ == "__main__":
    sys.exit(main())
