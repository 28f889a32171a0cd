"""One workload process: set up, signal readiness, then run the timed loop.

Protocol on stdout/stdin with ``run.py``: after importing ``balmap.cli``,
generating inputs and running one untimed warm-up task, the worker prints
``READY <json>`` and checks the warm-up output.  It then reads one line:
``stop`` ends it after printing ``WARM <json>`` with the warm-up problems, and
a JSON object ``{"seconds", "trace", "imports"}`` starts the closed loop,
after which it prints ``RESULT <json>``.

Usage: python3 perfbench/worker.py WORKLOAD SEED WORKDIR
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


def _loop(wl, first, seconds):
    """Run tasks back to back for about ``seconds``; at least one task runs.

    A task starts only while more than half a typical task remains, so a run
    ends within half a task of its deadline on either side.
    """
    samples, durations, failed, problems = [], [], 0, []
    i = first
    deadline = time.perf_counter() + seconds
    while i == first or (deadline - time.perf_counter()
                         > statistics.median(durations) / 2):
        inp = wl.inputs(i)
        tracer = wl.tracer
        if tracer is not None:
            tracer.task = i
            span = tracer.open("task")
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
            bad = None
        except Exception as e:  # a raising task counts as failed
            bad = ["task %d raised %r" % (i, e)]
        dt = time.perf_counter() - t0
        durations.append(dt)
        if tracer is not None:
            tracer.close(span)
        if bad is None:
            bad = wl.check(inp, out)
        if bad:
            failed += 1
            problems += bad
        else:
            samples.append(dt)
        i += 1
    return samples, i - first, failed, problems


def _peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), argv[2]
    t0 = time.perf_counter()
    import balmap.cli  # noqa: F401  (the import a CLI user pays)
    import_s = time.perf_counter() - t0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    warm = wl.inputs(0)
    out = wl.run(warm)
    print("READY " + json.dumps({"import_s": import_s}), flush=True)
    warm_problems = ["warm-up: " + p for p in wl.check(warm, out)]

    order = sys.stdin.readline().strip()
    if order == "stop" or not order:
        print("WARM " + json.dumps(warm_problems), flush=True)
        return 0
    order = json.loads(order)
    seconds = order["seconds"]
    result = {}
    if not order["trace"]:
        samples, attempted, failed, problems = _loop(wl, 1, seconds)
    else:
        # untraced half for the overhead baseline, then the traced half
        samples, n1, f1, p1 = _loop(wl, 1, seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        wl.tracer = tracer
        traced, n2, f2, p2 = _loop(wl, 1 + n1, seconds / 2)
        attempted, failed, problems = n1 + n2, f1 + f2, p1 + p2
        imports = order["imports"] + [end - start for nm, start, end, _, _
                                      in tracer.spans if nm == "cli.import"]
        overhead = (statistics.median(traced) / statistics.median(samples) - 1
                    if samples and traced else 0.0)
        result["layers"] = tracing.layer_metrics(tracer, n2, imports, overhead)
        result["traced_samples"] = traced
        tracer.write(os.path.join(workdir, "spans.jsonl"),
                     {"workload": name, "seed": seed, "tasks": n2})
    result.update(samples=samples, attempted=attempted, failed=failed,
                  problems=(warm_problems + problems)[:20],
                  peak_rss_mb=_peak_rss_mb(wl))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
