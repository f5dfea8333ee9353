"""Run one pentamesh benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uniform-identity --seed 1 --seconds 40 --trace 0

The run imports pentamesh from ``src/`` and works on a fixed set of seeded
inputs on one thread. With ``--trace 0`` it calls the inputs of the set in
turn, again and again, for about ``--seconds`` seconds, checks every output
and reports the end-to-end metrics. With ``--trace 1`` it runs each input of
the set once untraced and once under the span tracer and reports the
per-layer split. It prints a metric table, a context line, and as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pentamesh  # noqa: E402
from tracing import Tracer, per_layer_metric_units  # noqa: E402
from workloads import WORKLOADS, instance_seed  # noqa: E402

#: Size of the fixed input set of every run. Every metric is taken over these
#: inputs, whatever number of calls fits in the time.
INSTANCES = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_s": "s",
    "peak_rss_mb": "MB",
    "hull_coverage": "ratio",
}


def import_seconds() -> float:
    """Time to import pentamesh in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import pentamesh; "
            "print(time.perf_counter() - t)")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def max_rss_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fixed_set_mean(per_instance: list[list[float]]) -> float:
    """Mean over the instances of each instance's median.

    A faster program calls the inputs more often in the same time; taking each
    input's median first keeps the figure a property of the fixed input set.
    The work of one input varies up to twofold with its seed, so a median over
    six inputs jumps between them; their mean does not.
    """
    return statistics.fmean(statistics.median(v) for v in per_instance if v)


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _report_problems(label, problems) -> None:
    print(f"{label}: {'; '.join(problems[:5])}", file=sys.stderr)


def run_untraced(workload, seed: int, seconds: float, instances: int):
    """End-to-end metrics: the set's inputs are called in turn until the time is up.

    Before each call a fresh interpreter imports pentamesh and the call's input
    is built again; their sum is one set-up sample. After the first pass over
    the set, another call starts only if it is expected to end within
    ``seconds``. The peak RSS is read when the first call has ended, before
    any check has run and before scipy is imported, so it holds Python, numpy,
    pentamesh, one input and that call.
    """
    seeds = [instance_seed(seed, i) for i in range(instances)]
    rss_import_mb = max_rss_mb()
    peak_rss_mb = None
    coverages = []
    setups: list[list[float]] = [[] for _ in seeds]
    calls: list[list[float]] = [[] for _ in seeds]
    parts: dict[str, list[list[float]]] = {}
    context: dict[str, list[list[float]]] = {}
    attempted = failed = 0
    durations: list[float] = []
    t_start = time.perf_counter()
    step = 0
    while step < instances or (time.perf_counter() - t_start
                               + statistics.median(durations) <= seconds):
        index = step % instances
        t_step = time.perf_counter()
        import_s = import_seconds()
        t0 = time.perf_counter()
        inp = workload.setup(seeds[index])
        setups[index].append(import_s + time.perf_counter() - t0)
        ops = workload.ops(inp)
        attempted += ops
        try:
            out, part = workload.call(inp)
            if step == 0:
                peak_rss_mb = max_rss_mb()
            problems, ctx = workload.check(inp, out)
            if not problems and step < instances:
                coverages.append(workload.hull_coverage(inp, out))
        except Exception:  # a raising call fails all of its operations
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            failed += ops
            _report_problems(f"instance {index}", problems)
        else:
            calls[index].append(sum(part.values()))
            for per, values in ((parts, part), (context, ctx)):
                for key, value in values.items():
                    per.setdefault(key, [[] for _ in seeds])[index].append(value)
        durations.append(time.perf_counter() - t_step)
        step += 1

    metrics = {"setup_s": fixed_set_mean(setups)}
    if peak_rss_mb is not None:
        metrics["peak_rss_mb"] = peak_rss_mb
    if any(calls):
        metrics["call_s"] = fixed_set_mean(calls)
    if coverages:
        metrics["hull_coverage"] = statistics.median(coverages)
    info = {"calls": step, "rss_import_mb": rss_import_mb,
            **{key: fixed_set_mean(v) for key, v in sorted(parts.items())},
            **{key: fixed_set_mean(v) for key, v in sorted(context.items())}}
    return metrics, END_TO_END_UNITS, attempted, failed, info


def run_traced(workload, seed: int, instances: int):
    """Per-layer metrics: each input of the set runs once untraced, once traced.

    The two passes alternate in order from one input to the next, and both
    outputs are checked. Every figure is taken over the fixed set, so a traced
    run does not fill ``--seconds``.
    """
    tracer = Tracer()
    traced, ratios = [], []
    attempted = failed = 0
    for index in range(instances):
        inp = workload.setup(instance_seed(seed, index))
        ops = workload.ops(inp)
        attempted += ops
        try:
            second = workload.clone(inp)
            if index % 2:
                with tracer:
                    out2, part2 = workload.call(second)
                out, part = workload.call(inp)
            else:
                out, part = workload.call(inp)
                with tracer:
                    out2, part2 = workload.call(second)
            problems = workload.check(inp, out)[0] + workload.check(second, out2)[0]
            if workload.signature(out2) != workload.signature(out):
                problems.append("the traced pass gave another output")
        except Exception:  # a raising call fails all of its operations
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            failed += ops
            _report_problems(f"instance {index}", problems)
        else:
            traced.append(sum(part2.values()))
            ratios.append(traced[-1] / sum(part.values()))
    metrics = tracer.metrics(len(traced), statistics.fmean(traced),
                             statistics.median(ratios) - 1.0) if traced else {}
    return metrics, per_layer_metric_units(), attempted, failed, {"calls": 2 * instances}


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 instances: int = INSTANCES) -> dict:
    """Run one workload; returns the result object and the context record."""
    if trace:
        metrics, units, attempted, failed, info = run_traced(workload, seed, instances)
    else:
        metrics, units, attempted, failed, info = run_untraced(
            workload, seed, seconds, instances)
    import scipy  # loaded only now, for its version

    context = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "instances": instances, **info,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    return {"result": result, "context": context}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(pentamesh.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"pentamesh was imported from {pentamesh.__file__}, not from {SRC}")

    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, m in run["result"]["metrics"].items():
        print(f"{name:58s} {m['value']:16.6f} {m['unit']}")
    print("context " + json.dumps(run["context"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
