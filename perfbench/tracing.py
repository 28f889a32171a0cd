"""In-memory spans around calls into balmap, taken from outside the library.

The benchmark installs wrappers at the call sites listed in ``SITES``.  A
name is replaced in the module where the caller looks it up: ``hodge`` does
``from .exact import exact_rank``, so the site is ``balmap.hodge.exact_rank``;
replacing ``balmap.exact.exact_rank`` would time nothing.  Class methods are
replaced on the class.  Nothing under ``src/`` is edited.

Each span records its name, start, end, parent span and task id.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; calls nest on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        # each span: [name, start, end, parent index or None, task id]
        self.spans = []
        self.counts = defaultdict(float)
        self.task = None
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.task])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def count(self, name, n=1):
        self.counts[name] += n

    def merge(self, spans, counts, parent):
        """Adopt spans written by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, task in spans:
            self.spans.append([name, start, end,
                               parent if par is None else base + par, task])
        for name, n in counts.items():
            self.counts[name] += n

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent, task) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "task": task}) + "\n")


# -- counters taken at the call sites -------------------------------------------


def _calls(name):
    return lambda args, result: ((name, 1),)


def _rank_entries(args, result):
    rows = args[0]
    return (("exact.rank_calls", 1),
            ("exact.rank_entries", len(rows) * (len(rows[0]) if rows else 0)))


def _identity_checks(args, result):
    return (("symalg.identity_checks", sum(r.trials for r in result.records)),)


def _fft(args, result):
    # bytes computed from array sizes: one input and one output per transform
    return (("masolver.fft_calls", 1),
            ("masolver.fft_bytes_computed", args[-1].nbytes + result.nbytes))


# (module, name looked up at run time, span name or None, counter or None)
SITES = (
    ("balmap.cli", "_emit", "reports.emit", None),
    ("balmap.cli", "identity_suite", "symalg.identity_suite", _identity_checks),
    ("balmap.symalg", "identity_suite", "symalg.identity_suite",
     _identity_checks),
    ("balmap.hodge", "exact_rank", "exact.rank", _rank_entries),
    ("balmap.hodge", "operator_rows_exact", "invariant.rows_exact",
     _calls("invariant.rows_exact_calls")),
    ("balmap.hodge", "operator_matrix", "invariant.operator_matrix",
     _calls("invariant.operator_matrix_calls")),
    # lie_operator_matrix, inside flow_pullback, looks it up in invariant
    ("balmap.invariant", "operator_matrix", "invariant.operator_matrix",
     _calls("invariant.operator_matrix_calls")),
    ("balmap.moment", "flow_pullback", "invariant.flow_pullback", None),
    ("balmap.hodge", "_minor_gram", "hodge.gram", _calls("hodge.gram_builds")),
    ("balmap.hodge", "MetricContext.gram", None,
     _calls("hodge.gram_requests")),
    ("balmap.hodge", "delta_bc_ortho", "hodge.laplacian",
     _calls("hodge.laplacian_calls")),
    ("balmap.moment", "neumann_gamma", "hodge.neumann",
     _calls("hodge.neumann_calls")),
    ("balmap.hodge", "green_apply", "hodge.green", None),
    ("balmap.moment", "flow_derivative_check", "moment.flow_check", None),
    ("balmap.cli", "flow_derivative_check", "moment.flow_check", None),
    ("balmap.moment", "well_definedness_check", "moment.gauge_check", None),
    ("balmap.cli", "well_definedness_check", "moment.gauge_check", None),
    ("balmap.masolver", "solve_ma", "masolver.solve", None),
    ("balmap.cli", "solve_ma", "masolver.solve", None),
    ("balmap.masolver", "HessianOp.entries", "masolver.hessian",
     _calls("masolver.hessian_calls")),
    ("balmap.masolver", "HessianOp.rfft", "masolver.fft", _fft),
    ("balmap.masolver", "HessianOp.irfft", "masolver.fft", _fft),
    ("balmap.masolver", "gmres", "masolver.krylov", None),
    ("balmap.masolver", "_det_and_adjugate", "masolver.det_adj", None),
    ("balmap.masolver", "_min_eigenvalue", "masolver.min_eig", None),
)


def _wrap(tracer, fn, span, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(span, fn, *args, **kwargs)
        if counter is not None:
            for name, n in counter(args, result):
                tracer.count(name, n)
        return result
    return wrapper


def install(tracer):
    """Replace every site in ``SITES`` by a wrapper recording into ``tracer``."""
    for module, attr, span, counter in SITES:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, name, _wrap(tracer, getattr(owner, name), span,
                                   counter))


# -- per-layer metrics ----------------------------------------------------------

# span names timed per task; each gives <name>_s and <name>_self_s
TIMED = ("reports.emit", "symalg.identity_suite", "exact.rank",
         "invariant.rows_exact", "invariant.operator_matrix",
         "invariant.flow_pullback", "hodge.gram", "hodge.laplacian",
         "hodge.neumann", "hodge.green", "moment.flow_check",
         "moment.gauge_check", "masolver.solve", "masolver.hessian",
         "masolver.fft", "masolver.det_adj", "masolver.min_eig", "task")
COUNTED = ("symalg.identity_checks", "exact.rank_calls", "exact.rank_entries",
           "invariant.rows_exact_calls", "invariant.operator_matrix_calls",
           "hodge.gram_builds", "hodge.gram_requests", "hodge.laplacian_calls",
           "hodge.neumann_calls", "masolver.hessian_calls",
           "masolver.fft_calls", "masolver.fft_bytes_computed")
SUBCOMMANDS = ("catalog", "verify-identities", "cohomology", "moment",
               "theorem", "ma")
# the solve shapes of workloads.MASolve
SHAPES = ("krylov", "grid_d2r32", "grid_d3r8")


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    out = [("cli.import_s", "s")]
    for sub in SUBCOMMANDS:
        out += [("cli.command_s." + sub, "s"), ("cli.command_self_s." + sub, "s")]
    for name in TIMED:
        out += [(name + "_s", "s"), (name + "_self_s", "s")]
    out += [("masolver.krylov_s", "s"), ("masolver.krylov_self_s", "s")]
    out += [(name, "B" if name.endswith("_bytes_computed") else "count")
            for name in COUNTED]
    out += [("hodge.gram_hit_ratio", "ratio"),
            ("masolver.linesearch_accept_ratio", "ratio")]
    for shape in SHAPES:
        out += [("masolver.newton_steps." + shape, "count"),
                ("masolver.krylov_iters." + shape, "count"),
                ("masolver.damping_events." + shape, "count")]
    out += [("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
    return out


def layer_metrics(tracer, tasks, import_times, overhead):
    """Per-task totals, self times and counts from the spans of ``tasks`` tasks."""
    total = defaultdict(float)
    child = defaultdict(float)
    hessian_in_krylov = 0.0
    spans = tracer.spans
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
            if name == "masolver.hessian" and spans[parent][0] == "masolver.krylov":
                hessian_in_krylov += end - start
    self_time = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += end - start - child[i]
    values = {"cli.import_s": statistics.median(import_times)}
    for sub in SUBCOMMANDS:
        values["cli.command_s." + sub] = total["cli.command." + sub] / tasks
        values["cli.command_self_s." + sub] = self_time["cli.command." + sub] / tasks
    for name in TIMED:
        values[name + "_s"] = total[name] / tasks
        values[name + "_self_s"] = self_time[name] / tasks
    values["masolver.krylov_s"] = (total["masolver.krylov"]
                                   - hessian_in_krylov) / tasks
    values["masolver.krylov_self_s"] = self_time["masolver.krylov"] / tasks
    counts = tracer.counts
    for name in COUNTED:
        values[name] = counts[name] / tasks
    requests = counts["hodge.gram_requests"]
    values["hodge.gram_hit_ratio"] = (
        1.0 - counts["hodge.gram_builds"] / requests if requests else 0.0)
    steps = sum(counts["masolver.newton_steps." + s] for s in SHAPES)
    damping = sum(counts["masolver.damping_events." + s] for s in SHAPES)
    values["masolver.linesearch_accept_ratio"] = (
        steps / (steps + damping) if steps + damping else 0.0)
    for shape in SHAPES:
        for kind in ("newton_steps", "krylov_iters", "damping_events"):
            name = "masolver.%s.%s" % (kind, shape)
            values[name] = counts[name] / tasks
    values["trace.overhead_ratio"] = overhead
    values["trace.spans"] = len(spans) / tasks
    return values
