"""Per-layer tracing from outside the library.

``Tracer.install`` rebinds the public functions listed in ``LAYERS`` in
every loaded ``delzant`` module that holds them, so calls between modules
and calls inside a module both pass through a wrapper.  Each wrapper
records a span (name, start, end, parent, op id) in memory; ``uninstall``
restores the originals.  Self time is a span's duration minus the
durations of its direct child spans.  A function that recurses counts its
outermost spans in ``total_s``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "linalg": ("solve_square", "det", "rational_rank", "hnf", "solve_affine"),
    "polytopes": (
        "parse_polytope",
        "structure_report",
        "enumerate_vertices",
        "is_bounded",
        "redundancy",
        "is_delzant",
        "is_fano",
    ),
    "quadrics": ("polytope_to_quadrics", "quadrics_to_polytope"),
    "invariants": ("deck_data", "loop_lattice", "maslov_area_report"),
    "families": ("recognize_topology",),
    "oracle": ("sample_point", "loop_area", "loop_maslov"),
    "spectral": ("run_engine", "brute_force_vanishes", "admissible_maslov"),
    "analysis": ("analyze_polytope", "analysis_to_json"),
}

WRAPPED = frozenset(f"{layer}.{fn}" for layer, names in LAYERS.items() for fn in names)

# the exhaustive subset searches; every solve_square call is one subset tried,
# charged to the innermost of these spans around it
SEARCHES = ("polytopes.enumerate_vertices", "polytopes.redundancy", "polytopes.is_bounded")

# (metric, unit, better) in report order
METRICS = (
    ("linalg.solve_square.calls", "count", "lower"),
    ("linalg.solve_square.singular", "count", "lower"),
    ("linalg.solve_square.self_s", "s", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("linalg.det.self_s", "s", "lower"),
    ("linalg.rational_rank.self_s", "s", "lower"),
    ("linalg.hnf.self_s", "s", "lower"),
    ("linalg.solve_affine.self_s", "s", "lower"),
    ("polytopes.enumerate_vertices.calls", "count", "lower"),
    ("polytopes.enumerate_vertices.self_s", "s", "lower"),
    ("polytopes.enumerate_vertices.subsets", "count", "lower"),
    ("polytopes.redundancy.self_s", "s", "lower"),
    ("polytopes.redundancy.total_s", "s", "lower"),
    ("polytopes.redundancy.subsets", "count", "lower"),
    ("polytopes.vertices", "count", "higher"),
    ("polytopes.vertex_yield", "ratio", "higher"),
    ("polytopes.is_bounded.calls", "count", "lower"),
    ("polytopes.is_bounded.self_s", "s", "lower"),
    ("polytopes.is_bounded.subsets", "count", "lower"),
    ("polytopes.is_delzant.total_s", "s", "lower"),
    ("polytopes.is_fano.total_s", "s", "lower"),
    ("polytopes.structure_report.total_s", "s", "lower"),
    ("polytopes.parse_polytope.self_s", "s", "lower"),
    ("quadrics.polytope_to_quadrics.total_s", "s", "lower"),
    ("quadrics.quadrics_to_polytope.total_s", "s", "lower"),
    ("invariants.deck_data.total_s", "s", "lower"),
    ("invariants.loop_lattice.total_s", "s", "lower"),
    ("invariants.maslov_area_report.total_s", "s", "lower"),
    ("families.recognize_topology.total_s", "s", "lower"),
    ("oracle.sample_point.total_s", "s", "lower"),
    ("oracle.loop_area.total_s", "s", "lower"),
    ("oracle.loop_maslov.total_s", "s", "lower"),
    ("oracle.numpy_det.calls", "count", "lower"),
    ("spectral.run_engine.calls", "count", "lower"),
    ("spectral.run_engine.self_s", "s", "lower"),
    ("spectral.brute_force_vanishes.calls", "count", "lower"),
    ("spectral.brute_force_vanishes.self_s", "s", "lower"),
    ("spectral.admissible_maslov.total_s", "s", "lower"),
    ("analysis.analyze_polytope.self_s", "s", "lower"),
    ("analysis.analysis_to_json.total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

# metrics that must repeat exactly for a given seed
COUNTERS = tuple(name for name, unit, _ in METRICS if unit == "count")


class Tracer:
    def __init__(self):
        self.op = -1  # id of the op being run; spans carry it
        self.spans: list = []  # [name, start, end, parent index, op]
        self._stack: list = []  # [span index, start, time in child spans]
        self._searches: list[str] = []
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._restore: list = []

    def _wrap(self, name: str, fn, on_result=None):
        search = name in SEARCHES
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            self.calls[name] += 1
            self._depth[name] += 1
            if search:
                self._searches.append(name)
            frame = [index, clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                if search:
                    self._searches.pop()
                self._depth[name] -= 1
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                if not self._depth[name]:
                    self.total_s[name] += duration
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (name, frame[1], end, parent, self.op)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _solved(self, result):
        if self._searches:
            self.counts[self._searches[-1] + ".subsets"] += 1
        if result is None:
            self.counts["linalg.solve_square.singular"] += 1

    def _enumerated(self, vertex_set):
        self.counts["polytopes.vertices"] += len(vertex_set.vertices)

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hooks = {
            "linalg.solve_square": self._solved,
            "polytopes.enumerate_vertices": self._enumerated,
        }
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "delzant" or key.startswith("delzant.")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"delzant.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)

        import numpy.linalg

        det = numpy.linalg.det

        def counted_det(*args, **kwargs):
            if self._depth["oracle.loop_maslov"]:
                self.counts["oracle.numpy_det.calls"] += 1
            return det(*args, **kwargs)

        self._rebind(numpy.linalg, "det", counted_det)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def metrics(self) -> dict:
        """Every per-layer metric except the overhead, which needs the untraced run."""
        values: dict = {}
        for metric, _, _ in METRICS:
            if metric.startswith("trace."):
                continue
            head, _, stat = metric.rpartition(".")
            if stat == "calls" and head in WRAPPED:
                values[metric] = self.calls[head]
            elif stat == "self_s":
                values[metric] = self.self_s.get(head, 0.0)
            elif stat == "total_s":
                values[metric] = self.total_s.get(head, 0.0)
            else:
                values[metric] = self.counts.get(metric, 0)
        subsets = values["polytopes.enumerate_vertices.subsets"]
        vertices = values["polytopes.vertices"]
        values["polytopes.vertex_yield"] = vertices / subsets if subsets else 0.0
        return values

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")
