"""Self-tests of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Smoke: every workload runs a few ops untraced and traced, reports
   exactly the metrics ``BENCHMARK.json`` names, with their units, and
   has no failed op.
2. Mutation: one deliberately wrong answer per workload makes the run
   report a failed op and ``correct: false``.
3. Determinism: the traced run's counters repeat exactly for a seed.
4. Inputs: the families grid is the one ``delzant verify`` checks.
5. Bare directory: with only ``BENCHMARK.json`` and the benchmark's own
   files, the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_OPS = 4


def run(*options: str, root: str = ROOT) -> tuple[int, str]:
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--seed", "1"]
    command += ["--seconds", "0", *options]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result(*options: str) -> dict:
    code, out = run(*options)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(options)} exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sys.path.insert(0, HERE)
    from tracer import COUNTERS

    for workload in (w["name"] for w in spec["workloads"]):
        smoke = ("--workload", workload, "--ops", str(SMOKE_OPS))
        for trace in ("0", "1"):
            res = result(*smoke, "--trace", trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            label = f"{workload} trace {trace}"
            assert units == expected[trace], f"{label}: metrics differ from BENCHMARK.json"
            assert res["correct"] and res["failed"] == 0, f"{label}: {res['failed']} failed"
            for name, m in res["metrics"].items():
                print(f"smoke {workload:17s} {name:40s} {m['value']:.6g} {m['unit']}")

        mutated = result(*smoke, "--trace", "0", "--mutate")
        assert mutated["failed"] >= 1 and not mutated["correct"], f"{workload}: mutation not caught"
        failed, attempted = mutated["failed"], mutated["attempted"]
        print(f"mutation {workload}: {failed} of {attempted} ops failed, as intended")

        traced = [result(*smoke, "--trace", "1")["metrics"] for _ in range(2)]
        counts = [{c: metrics[c]["value"] for c in COUNTERS} for metrics in traced]
        assert counts[0] == counts[1], f"{workload}: counters differ between traced runs"
        print(f"determinism {workload}: {len(COUNTERS)} counters repeat exactly")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from delzant import reproduce
    from workloads import Families

    assert Families.product_grid() == reproduce.product_pipeline_instances()[0]
    assert Families.redundant_grid() == reproduce.redundant_pipeline_instances()
    print("inputs: families grid matches verify's pipeline rows")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, out = run("--workload", "families", "--trace", "0", root=bare)
    shutil.rmtree(bare)
    assert code != 0 and '"correct"' not in out, "the benchmark ran without the library"
    print(f"bare directory: exit code {code}, no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
