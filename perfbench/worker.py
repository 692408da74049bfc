"""One pass of one workload, in a fresh interpreter; prints one JSON line.

Started by ``run.py``.  Set-up (imports, input generation, warm-up) is
timed from the first line of this file.  The pass then runs ops back to
back, either for ``--seconds`` (at least ``MIN_OPS`` ops, ending on a
block boundary) or for a fixed count (``--fixed``).  Answers are checked
and digested after the pass, outside the timed region.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# a timed pass has at least this many ops, so at least 10 latencies lie beyond p90
MIN_OPS = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--fixed", action="store_true", help="run exactly the workload's prefix ops"
    )
    parser.add_argument("--ops", type=int, help="run exactly this many ops")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--mutate", action="store_true", help="corrupt the first answer")
    return parser.parse_args(argv)


def run_pass(workload, seconds, min_ops, count, tracer):
    """Issue ops back to back; return (answers, errors, latencies, wall seconds)."""
    inputs = workload.inputs
    limit = len(inputs) if count is None else min(count, len(inputs))
    answers, errors, latencies = [], {}, []
    clock = time.perf_counter
    begin = clock()
    i = 0
    while i < limit:
        if (
            count is None
            and i >= min_ops
            and i % workload.block == 0
            and clock() - begin >= seconds
        ):
            break
        if tracer is not None:
            tracer.op = i
        t = clock()
        try:
            answer = workload.op(inputs[i])
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            answer = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        answers.append(answer)
        i += 1
    return answers, errors, latencies, clock() - begin


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    import delzant
    import numpy
    import workloads

    if not os.path.abspath(delzant.__file__).startswith(SRC + os.sep):
        print(f"delzant was imported from {delzant.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        choices = sorted(workloads.WORKLOADS)
        print(f"unknown workload {args.workload!r}; choose from {choices}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    workload.warm_up()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    count = args.ops if args.ops is not None else (workload.prefix if args.fixed else None)
    try:
        # the timed pass always covers the prefix, so its digest matches the traced run's
        min_ops = max(MIN_OPS, workload.prefix)
        answers, errors, latencies, wall = run_pass(workload, args.seconds, min_ops, count, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.mutate and answers and answers[0] is not None:
        answers[0] = workload.corrupt(answers[0])
    failures = [f"op {i}: {message}" for i, message in sorted(errors.items())]
    failed = len(errors)
    for i, answer in enumerate(answers):
        if answer is not None:
            wrong = workload.check(workload.inputs[i], answer)
            failed += bool(wrong)
            failures.extend(f"op {i}: {message}" for message in wrong)

    prefix = answers[: workload.prefix]
    canonical = "\n".join(a if a is not None else "null" for a in prefix)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    ordered = sorted(latencies)
    tail_index = math.ceil(0.9 * len(ordered)) - 1
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "setup_s": setup_s,
        "ops": len(answers),
        "pool": len(workload.inputs),
        "failed": failed,
        "failures": failures[:5],
        "wall_s": wall,
        "latency_p50_s": statistics.median(ordered),
        "latency_p90_s": ordered[tail_index],
        "latency_p90_tail": len(ordered) - 1 - tail_index,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "digest_ops": len(prefix),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
