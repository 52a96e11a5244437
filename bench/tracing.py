"""Per-layer tracing of relaxcert from outside the package.

``install`` replaces public functions of the package with wrappers, in every
``relaxcert`` module namespace that holds them, so calls made through
``from ... import`` bindings are caught too.  Each wrapped call records a
span (name, start, end, parent); some also add counts read from their
arguments or results.  Spans stay in memory and are written out at the end.
A layer's ``_s`` metric is the self time of its spans: their duration minus
the time covered by their child spans.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# Per-layer metrics as (name, unit, better), in report order.
METRICS = [
    ("solver.build_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.us_per_iter", "us", "lower"),
    ("solver.kkt_bytes", "B", "lower"),
    ("distflow.assumptions_s", "s", "lower"),
    ("distflow.sample_s", "s", "lower"),
    ("distflow.samples", "count", "lower"),
    ("distflow.residual_calls", "count", "lower"),
    ("distflow.residual_s", "s", "lower"),
    ("distflow.unpack_calls", "count", "lower"),
    ("restore.path_s", "s", "lower"),
    ("restore.paths", "count", "lower"),
    ("restore.cprime_s", "s", "lower"),
    ("restore.csv_s", "s", "lower"),
    ("certify.c1c3_s", "s", "lower"),
    ("certify.points_checked", "count", "lower"),
    ("certify.c2_proxy_s", "s", "lower"),
    ("certify.exactness_s", "s", "lower"),
    ("certify.scan_s", "s", "lower"),
    ("certify.grid_points", "count", "lower"),
    ("certify.feasible_points", "count", "lower"),
    ("certify.adjacency_s", "s", "lower"),
    ("certify.adjacency_builds", "count", "lower"),
    ("certify.candidates", "count", "lower"),
    ("certify.refuted_ratio", "ratio", "higher"),
    ("certify.multistart_s", "s", "lower"),
    ("certify.multistart_runs", "count", "lower"),
    ("certify.converged_ratio", "ratio", "higher"),
    ("lrsdp.reduce_s", "s", "lower"),
    ("lrsdp.stages", "count", "lower"),
    ("lrsdp.trace_bytes", "B", "lower"),
    ("lrsdp.csv_s", "s", "lower"),
    ("core.pwl_check_s", "s", "lower"),
    ("core.csv_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "B", "lower"),
]

# Span name -> metric that receives its self time.
SELF_TIME = {
    "solver.build": "solver.build_s",
    "solver.solve": "solver.solve_s",
    "distflow.assumptions": "distflow.assumptions_s",
    "distflow.sample": "distflow.sample_s",
    "distflow.residual": "distflow.residual_s",
    "restore.path": "restore.path_s",
    "restore.cprime": "restore.cprime_s",
    "restore.csv": "restore.csv_s",
    "certify.c1c3": "certify.c1c3_s",
    "certify.c2_proxy": "certify.c2_proxy_s",
    "certify.exactness": "certify.exactness_s",
    "certify.scan": "certify.scan_s",
    "certify.adjacency": "certify.adjacency_s",
    "certify.multistart": "certify.multistart_s",
    "lrsdp.reduce": "lrsdp.reduce_s",
    "lrsdp.csv": "lrsdp.csv_s",
    "core.pwl_check": "core.pwl_check_s",
    "core.csv": "core.csv_s",
    "cli": "cli.self_s",
}


class Tracer:
    """In-memory span and count recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.passes: list[dict] = []
        self._pass_start = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str | None:
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else None

    def wrap(self, name: str, fn, observe=None):
        """Wrapper recording a span per call; ``observe(bound_args, result,
        seconds)`` may add counts afterwards."""
        nid = self._id(name)
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if observe else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((nid, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, spans[idx][3])
            if observe:
                observe(signature.bind(*args, **kwargs).arguments, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_calls(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def keep_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    # --- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        self.counts.clear()
        self.maxima.clear()
        self._pass_start = len(self.spans)

    def end_pass(self, batch_s: float) -> dict:
        """Aggregate the spans and counts recorded since ``begin_pass``."""
        first = self._pass_start
        spans = self.spans[first:]
        child = np.zeros(len(spans))
        for nid, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        covered = 0.0
        for i, (nid, start, end, parent) in enumerate(spans):
            name = self.names[nid]
            self_time[name] += (end - start) - child[i]
            calls[name] += 1
            if parent < 0:
                covered += end - start
        summary = {
            "batch_s": batch_s,
            "covered_s": covered,
            "self_s": dict(self_time),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        self.passes.append(summary)
        return summary

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "passes": self.passes}, fh)


def pass_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    self_s, calls = summary["self_s"], summary["calls"]
    counts, maxima = summary["counts"], summary["maxima"]
    out = {name: 0.0 for name, unit, _ in METRICS if unit == "s"}
    for span, metric in SELF_TIME.items():
        out[metric] += self_s.get(span, 0.0)
    iterations = counts.get("solver.iterations", 0)
    candidates = counts.get("certify.candidates", 0)
    runs = counts.get("certify.multistart_runs", 0)
    out.update({
        "solver.iterations": iterations,
        "solver.us_per_iter": (1e6 * counts.get("solver.conic_s", 0.0) / iterations
                               if iterations else 0.0),
        "solver.kkt_bytes": int(maxima.get("solver.kkt_bytes", 0)),
        "distflow.samples": counts.get("distflow.samples", 0),
        "distflow.residual_calls": calls.get("distflow.residual", 0),
        "distflow.unpack_calls": counts.get("distflow.unpack_calls", 0),
        "restore.paths": calls.get("restore.path", 0),
        "certify.points_checked": counts.get("certify.points_checked", 0),
        "certify.grid_points": counts.get("certify.grid_points", 0),
        "certify.feasible_points": counts.get("certify.feasible_points", 0),
        "certify.adjacency_builds": calls.get("certify.adjacency", 0),
        "certify.candidates": candidates,
        "certify.refuted_ratio": (counts.get("certify.refuted", 0) / candidates
                                  if candidates else 0.0),
        "certify.multistart_runs": runs,
        "certify.converged_ratio": (counts.get("certify.converged", 0) / runs
                                    if runs else 0.0),
        "lrsdp.stages": counts.get("lrsdp.stages", 0),
        "lrsdp.trace_bytes": int(maxima.get("lrsdp.trace_bytes", 0)),
        "cli.calls": calls.get("cli", 0),
        "cli.artifact_bytes": counts.get("cli.artifact_bytes", 0),
    })
    return out


# --- what to wrap ----------------------------------------------------------

def _patch(old, new) -> None:
    """Rebind ``old`` to ``new`` in every loaded relaxcert module."""
    for mod in list(sys.modules.values()):
        if mod is None or not mod.__name__.startswith("relaxcert"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every pipeline layer."""
    import relaxcert.certify as certify
    import relaxcert.cli as cli
    import relaxcert.core as core
    import relaxcert.distflow as distflow
    import relaxcert.lrsdp as lrsdp
    import relaxcert.restore as restore
    import relaxcert.solver as solver

    c = tracer.counts

    def conic(args, result, seconds):
        m, n = args["prog"].A.shape
        c["solver.iterations"] += result.iterations
        c["solver.conic_s"] += seconds
        tracer.keep_max("solver.kkt_bytes", (n + m + 1) ** 2 * 8)

    def sampled(args, result, seconds):
        c["distflow.samples"] += len(result)

    def c1c3(args, result, seconds):
        c["certify.points_checked"] += len(args["sample_points"])

    def scan(args, result, seconds):
        problem = args["problem"]
        res = args["resolution"]
        c["certify.grid_points"] += int(np.prod(
            [len(np.arange(lo, hi + res / 2, res))
             for lo, hi in zip(problem.lower, problem.upper)]))
        c["certify.feasible_points"] += len(result.points)
        left = result.label_counts["genuine"] + result.label_counts["pseudo"]
        c["certify.candidates"] += left + result.artifacts_refuted
        c["certify.refuted"] += result.artifacts_refuted

    def multistart(args, result, seconds):
        c["certify.multistart_runs"] += len(result.runs)
        c["certify.converged"] += sum(r.converged for r in result.runs)

    def reduced(args, result, seconds):
        c["lrsdp.stages"] += len(result.stages)
        tracer.keep_max("lrsdp.trace_bytes",
                        result.trace.points.nbytes + result.trace.params.nbytes)

    def cli_call(args, result, seconds):
        argv = args["argv"]
        out = argv[argv.index("--out") + 1] if "--out" in argv else "out"
        for entry in os.scandir(out):
            if entry.is_file():
                c["cli.artifact_bytes"] += entry.stat().st_size

    spans = [
        (solver, "build_opf_program", "solver.build", None),
        (solver, "build_lrsdp_program", "solver.build", None),
        (solver, "solve_conic", "solver.solve", conic),
        (solver, "solve_opf_relaxation", "solver.solve", None),
        (solver, "solve_lrsdp_relaxation", "solver.solve", None),
        (distflow, "validate_assumptions", "distflow.assumptions", None),
        (distflow, "sample_relaxed_points", "distflow.sample", sampled),
        (distflow, "residual_X", "distflow.residual", None),
        (distflow, "residual_Xhat", "distflow.residual", None),
        (restore, "restoration_path", "restore.path", None),
        (restore, "cprime_margin", "restore.cprime", None),
        (restore, "cprime_reference", "restore.cprime", None),
        (restore, "write_restoration_csv", "restore.csv", None),
        (certify, "check_c1_c3", "certify.c1c3", c1c3),
        (certify, "check_c2_proxy", "certify.c2_proxy", None),
        (certify, "check_exactness", "certify.exactness", None),
        (certify, "brute_force_oracle", "certify.scan", scan),
        (certify, "classify_local_optima", "certify.scan", None),
        (certify, "multistart_local_search", "certify.multistart", multistart),
        (lrsdp, "reduce_rank_path", "lrsdp.reduce", reduced),
        (lrsdp, "write_reduction_csv", "lrsdp.csv", None),
        (core, "check_piecewise_linear_family", "core.pwl_check", None),
        (cli, "main", "cli", cli_call),
    ]
    for module, attr, name, observe in spans:
        old = getattr(module, attr)
        _patch(old, tracer.wrap(name, old, observe))

    old = distflow.unpack_point
    _patch(old, tracer.count_calls("distflow.unpack_calls", old))

    grid = certify.LandscapeGrid
    grid.adjacency = tracer.wrap("certify.adjacency", grid.adjacency)

    # The CSV writer calls back into the layer that asked for the file: the
    # row, cost and Lyapunov callbacks count toward that layer's csv span,
    # the formatting and writing toward core.csv.
    old_csv = core.write_trace_csv
    csv_span = tracer.wrap("core.csv", old_csv)

    def write_trace_csv(path, trace, coordinate_labels, coordinate_rows, cost, lyapunov):
        owner = tracer.current() or "core.csv"
        return csv_span(path, trace, coordinate_labels,
                        tracer.wrap(owner, coordinate_rows),
                        cost=tracer.wrap(owner, cost),
                        lyapunov=tracer.wrap(owner, lyapunov))

    _patch(old_csv, write_trace_csv)
