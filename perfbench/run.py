"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload families --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every pass runs in a fresh interpreter (``worker.py``), so the library's
caches never carry over from one pass to the next, with BLAS pinned to one
thread.

``--trace 0``: set-up is repeated in fresh interpreters and ``setup_s``
is the median; then one timed pass gives the end-to-end metrics.
``--trace 1``: the workload's fixed-length prefix runs untraced, traced,
and untraced again; the traced run gives the per-layer metrics, and its
wall minus the mean untraced wall is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the environment and the digest of the answers, also goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 5
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker(options: list[str], deadline: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [sys.executable, os.path.join(HERE, "worker.py"), *options]
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(options)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(base: list[str], deadline: float, extra: list[str]) -> tuple[dict, dict]:
    setups = [worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS - 1)]
    run = worker(base + extra, deadline)
    setups.append(run["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (run["ops"] / run["wall_s"], "1/s"),
        "latency_p50_ms": (1000 * run["latency_p50_s"], "ms"),
        "latency_p90_ms": (1000 * run["latency_p90_s"], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    run["setup_samples_s"] = setups
    run["error_rate"] = run["failed"] / run["ops"]
    return metrics, run


def per_layer(base: list[str], deadline: float, extra: list[str], spans: str) -> tuple[dict, dict]:
    # untraced runs on both sides of the traced one, so a drift in machine
    # speed shows in both walls the overhead is taken from
    before = worker(base + ["--fixed"] + extra, deadline)
    traced = worker(base + ["--fixed", "--trace", "--spans", spans] + extra, deadline)
    after = worker(base + ["--fixed"] + extra, deadline)
    units = {name: unit for name, unit, _ in METRICS}
    metrics = {name: (value, units[name]) for name, value in traced.pop("layers").items()}
    untraced_wall = (before["wall_s"] + after["wall_s"]) / 2
    overhead = traced["wall_s"] - untraced_wall
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced_wall, "ratio")
    runs = (before, traced, after)
    run = dict(traced, untraced=[before, after])
    run["ops"] = sum(r["ops"] for r in runs)
    run["failed"] = sum(r["failed"] for r in runs)
    run["failures"] = [f for r in runs for f in r["failures"]]
    if len({r["digest"] for r in runs}) != 1:
        run["failed"] += 1
        run["failures"].append("tracing changed the answers: digests differ")
    run["error_rate"] = run["failed"] / run["ops"]
    return metrics, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, help="self-test: run exactly this many ops per pass")
    parser.add_argument("--mutate", action="store_true", help="self-test: corrupt one answer")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "delzant", "__init__.py")):
        print(f"no library to benchmark: {ROOT}/src/delzant is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    extra = ["--ops", str(args.ops)] if args.ops is not None else []
    if args.mutate:
        extra.append("--mutate")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, run = per_layer(base, deadline, extra, spans)
        else:
            metrics, run = end_to_end(base, deadline, extra)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(OUT, name + ".json"), "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "run": run}, handle, indent=2)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:40s} {value:.6g} {unit}")
    shown = ("workload", "seed", "python", "numpy", "nproc", "ops", "latency_p90_tail")
    shown += ("error_rate", "failures", "digest", "digest_ops")
    print(json.dumps({key: run[key] for key in shown}))
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["ops"],
                "failed": run["failed"],
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
