"""balmap benchmark: one client, one task at a time, in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each run spawns the workload process ``SETUPS[workload]`` times.  Every
spawn imports ``balmap.cli``, generates its inputs from the seed and runs one
untimed, checked warm-up task; ``setup_s`` is the median time from spawn to
the end of that task.  The last process then runs checked tasks back to back
for ``--seconds``.  With ``--trace 1`` the first half of the loop runs
untraced and the second half traced; the end-to-end figures in the summary
come from the untraced half and the per-layer metrics from the traced half.
The last line of standard output is the JSON result; the lines before it are
a readable summary, which adds the median and tail task time, every sample
and the failed ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
# fresh processes set up per run, by workload; setup_s is their median.
# hodge-moment sets up in under a second, mostly import, so it takes more.
SETUPS = {"cli-session": 3, "exact-algebra": 3, "hodge-moment": 5,
          "ma-solve": 3}
WORKLOADS = tuple(SETUPS)
# a run that is not done by then is killed and reports no result
TIME_LIMIT_S = 170

sys.path.insert(0, HERE)
import tracing  # noqa: E402


class BenchError(RuntimeError):
    pass


def _kill(proc):
    """End the worker and every process it started, then reap the worker."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _spawn_ready(workload, seed, workdir, env, deadline):
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         workdir], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True)
    # a worker that outlives the run's deadline is killed, which ends its reads
    proc.watchdog = threading.Timer(max(deadline - time.monotonic(), 0),
                                    _kill, (proc,))
    proc.watchdog.daemon = True
    proc.watchdog.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if not line.startswith("READY "):
        _kill(proc)
        raise BenchError("%s worker failed during set-up" % workload)
    return proc, setup_s, json.loads(line[len("READY "):])


def _finish(proc, order):
    proc.stdin.write(order + "\n")
    proc.stdin.flush()
    out = proc.stdout.read()
    proc.wait()
    proc.watchdog.cancel()
    return out


def _reply(out, tag):
    lines = [line for line in out.splitlines() if line.startswith(tag)]
    if not lines:
        raise BenchError("worker gave no %s line" % tag.strip())
    return json.loads(lines[-1][len(tag):])


def run_workload(workload, seed, seconds, trace):
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "balmap", "__init__.py")):
        raise BenchError("balmap sources not found under %s" % src)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    workdir = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    setups, imports, problems = [], [], []
    deadline = time.monotonic() + TIME_LIMIT_S
    proc = None
    try:
        for k in range(SETUPS[workload]):
            proc, setup_s, ready = _spawn_ready(workload, seed, workdir, env,
                                                deadline)
            setups.append(setup_s)
            imports.append(ready["import_s"])
            if k < SETUPS[workload] - 1:
                problems += _reply(_finish(proc, "stop"), "WARM ")
        order = json.dumps({"seconds": seconds, "trace": trace,
                            "imports": imports})
        out = _finish(proc, order)
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(WORK, "spans-%s-seed%d.jsonl"
                                           % (workload, seed)))
    finally:
        if proc is not None:
            _kill(proc)
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("%s worker failed in the timed loop" % workload)
    res = _reply(out, "RESULT ")
    res["setups"] = setups
    res["problems"] = problems + res["problems"]
    return res


def tail(samples):
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100)[pct - 1]


def end_to_end(res):
    samples = res["samples"]
    return {
        "tasks_per_s": {"value": len(samples) / sum(samples) if samples else 0.0,
                        "unit": "1/s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
    }


def summary(workload, seed, seconds, res, metrics):
    n = len(res["samples"])
    print("workload %s  seed %d  seconds %g  closed loop, 1 client"
          % (workload, seed, seconds))
    print("  threads: cpu_count %d, affinity %d, OMP_NUM_THREADS=%s, "
          "OPENBLAS_NUM_THREADS=%s (HessianOp uses workers=-1)"
          % (os.cpu_count(), len(os.sched_getaffinity(0)),
             os.environ.get("OMP_NUM_THREADS", "unset"),
             os.environ.get("OPENBLAS_NUM_THREADS", "unset")))
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    if n:
        t = tail(res["samples"])
        print("  task_p50_s %.6g s over %d samples; task_tail_s %s" % (
            statistics.median(res["samples"]), n,
            "p%d = %.6g s" % t if t else "not reported (fewer than 11 samples)"))
        print("  task seconds min %.4f max %.4f, in run order: %s" % (
            min(res["samples"]), max(res["samples"]),
            " ".join("%.3f" % x for x in res["samples"][:60])))
    print("  setup_s samples %s" % ["%.4f" % s for s in res["setups"]])
    print("  failed_ratio %d/%d = %g" % (
        res["failed"], res["attempted"], res["failed"] / res["attempted"]))
    for p in res["problems"]:
        print("  PROBLEM: %s" % p)


def result_line(res, metrics):
    return {"correct": res["failed"] == 0 and not res["problems"],
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def layer_block(res):
    units = dict(tracing.per_layer_names())
    return {name: {"value": res["layers"][name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            metrics = end_to_end(res)
            summary(name, args.seed, args.seconds, res, metrics)
            if args.trace:
                metrics = layer_block(res)
                for mname, m in metrics.items():
                    print("  %-40s %14.6g %s" % (mname, m["value"], m["unit"]))
            results[name] = result_line(res, metrics)
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    last = results if args.workload == "all" else results[args.workload]
    print(json.dumps(last, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
