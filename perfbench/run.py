#!/usr/bin/env python3
"""Benchmark harness for the delsarte package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rank_sweep --seed 1 --seconds 45 --trace 0

One client, closed loop: each operation starts when the previous one has
finished, so at most one process of the package runs at a time. The run
makes passes over one seeded list of operations until --seconds have gone
and at least MIN_PASSES are done (see workloads.py), and checks every
answer (expected.py, golden/). The
last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it holds the run's metadata.

--trace 0 reports the end-to-end metrics: op_p50_ms and op_tail_ms over
every operation of every pass, ops_per_s as the operations completed over
the wall time of all passes, and setup_s as the median of
fresh-interpreter set-ups sampled before and between passes. --trace 1
traces every other operation, the odd ones in one pass and the even ones
in the next (spans around the public calls of each layer, kept in memory
and written to perfbench/out/ at the end), reports
the per-layer metrics and puts the median over operations of their
untraced - traced time in the metadata. A traced run also makes one traced
operation of each workload, so that every layer is reported on every
workload.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, load_golden, run_pass

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_BEFORE = 3  # set-up samples before the first pass; one more follows each pass
# Passes a run makes even when --seconds are up: cli_cold then has at least
# 16 `table` samples, so the 11th-slowest operation (op_tail_ms) is one of them.
MIN_PASSES = 8

#: per-layer metric -> (span name, scale from seconds, unit)
SPAN_METRICS = {
    "cli.import_ms": ("cli.import", 1e3, "ms"),
    "catalog.load_ms": ("catalog.load", 1e3, "ms"),
    "polygon.classify_ms": ("polygon.classify", 1e3, "ms"),
    "catalog.table_ms": ("catalog.table", 1e3, "ms"),
    "catalog.rank_ms": ("catalog.rank", 1e3, "ms"),
    "lattice.homogenize_us": ("lattice.homogenize", 1e6, "us"),
    "exact.generators_us": ("exact.generators", 1e6, "us"),
    "lattice.group_order_ms": ("lattice.group_order", 1e3, "ms"),
    "lattice.lefschetz_ms": ("lattice.lefschetz", 1e3, "ms"),
    "fibers.shioda_tate_us": ("fibers.shioda_tate", 1e6, "us"),
    "weierstrass.delta_check_ms": ("weierstrass.delta_check", 1e3, "ms"),
    "polygon.census_s": ("polygon.census", 1.0, "s"),
    "oracles.interior_scan_ms": ("oracles.interior_scan", 1e3, "ms"),
    "oracles.brute_lambda_ms": ("oracles.brute_lambda", 1e3, "ms"),
}
LAYERS = sorted({span.split(".")[0] for span, _, _ in SPAN_METRICS.values()})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="stop after this many operations (self-test)")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="check the first operation against a wrong answer (self-test)")
    return parser.parse_args(argv)


def child_env():
    """The environment of every child: `src` on the path, bytecode caching on.

    An installed package has its bytecode compiled. Without the cache each
    fresh interpreter compiles the package again (about 90 ms on a 2-vCPU
    host), and set-up times would depend on whether an earlier run left one.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_samples(env, count):
    """Seconds of `import delsarte.cli` + `load_catalog()`, each in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "child.py"), "setup"]
    return [
        float(subprocess.run(cmd, env=env, check=True, capture_output=True,
                             timeout=120).stdout)
        for _ in range(count)
    ]


def tail(samples):
    """(value, percentile): the highest sample with at least 10 samples above it.

    With 20 samples or fewer that sample would be at or below the median,
    so the maximum is taken instead.
    """
    xs = sorted(samples)
    if len(xs) > 20:
        return xs[-11], 100.0 * (len(xs) - 10) / len(xs)
    return xs[-1], 100.0


def execute_pass(cls, workload, cases, env, tracer, traced_ops, wrong_first, label):
    """One pass over the cases; in a fresh worker process for in-process workloads.

    Returns ([[seconds, ok, traced], ...], wall seconds).
    """
    if not cls.in_process:
        return run_pass(workload, cases, tracer, traced_ops, wrong_first, label)
    request = {"workload": cls.name, "cases": cases, "traced_ops": traced_ops,
               "wrong_first": wrong_first, "label": label}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(request),
                          capture_output=True, text=True, env=env, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        # The pass never finished: every operation in it counts as failed.
        return [[None, False, False] for _ in cases], None
    out = json.loads(proc.stdout.splitlines()[-1])
    if tracer is not None:
        tracer.adopt(out["spans"], out["errors"], out["counters"], out["per_key"])
    return out["results"], out["wall"]


def run_passes(cls, cases, args, env, tracer, setup, rng):
    """Passes over the same cases until --seconds have gone and MIN_PASSES are done.

    With --max-ops the run makes one pass.

    Each pass runs the cases in a new seeded order, so that an operation's
    times do not depend on what ran before it; results come back in the
    order of `cases`. Untraced runs take a set-up sample after each
    pass into `setup`, so that its samples spread over the run like the
    passes do. Traced runs trace the odd cases in even passes and the even
    ones in odd passes.
    """
    workload = None if cls.in_process else cls(env)
    passes = []
    start = time.perf_counter()
    while not passes or (not args.max_ops and (time.perf_counter() - start < args.seconds
                                               or len(passes) < MIN_PASSES)):
        order = list(range(len(cases)))
        rng.shuffle(order)
        parity = 1 - len(passes) % 2
        traced_ops = [j for j, i in enumerate(order) if i % 2 == parity] if tracer else []
        results, wall = execute_pass(cls, workload, [cases[i] for i in order], env, tracer,
                                     traced_ops, args.wrong_expected and not passes,
                                     len(passes))
        by_case = [None] * len(cases)
        for j, i in enumerate(order):
            by_case[i] = results[j]
        passes.append((by_case, wall))
        if tracer is None:
            setup += setup_samples(env, 1)
    return passes


def run_probes(env, tracer):
    """One traced operation of each workload, each in a fresh process."""
    results = []
    for cls in WORKLOADS.values():
        case = cls.probe if cls.in_process else load_golden()[cls.probe_kind][0]
        workload = None if cls.in_process else cls(env)
        ops, _ = execute_pass(cls, workload, [case], env, tracer, [0], False, f"probe:{cls.name}")
        results += ops
    return results


def median_times(passes, traced=False):
    """Each operation's median time over the passes, untraced or traced, in seconds.

    None for an operation that never completed in that mode.
    """
    per_op = zip(*(ops for ops, _ in passes))
    medians = []
    for op in per_op:
        times = [t for t, _, was_traced in op if t is not None and was_traced == traced]
        medians.append(statistics.median(times) if times else None)
    return medians


def latencies(passes):
    """(op_p50 s, op_tail s, tail percentile, sample count) of the untraced operations.

    Both are over every completed operation of every pass, so that the
    slowest commands reach the tail.
    """
    samples = [t for ops, _ in passes for t, _, traced in ops if t is not None and not traced]
    return (statistics.median(samples), *tail(samples), len(samples))


def trace_overhead(passes):
    """Median over operations of their median untraced - median traced time, in ms."""
    pairs = [(u, t) for u, t in zip(median_times(passes), median_times(passes, traced=True))
             if u is not None and t is not None]
    return {
        "operations": len(pairs),
        "untraced_minus_traced_ms": statistics.median(u - t for u, t in pairs) * 1e3
        if pairs else None,
        "note": "traced operations also make the layer calls one by one, so the "
                "difference includes that work",
    }


def layer_metrics(tracer):
    metrics = {}
    for metric, (span, scale, unit) in SPAN_METRICS.items():
        durations = tracer.durations(span)
        if durations:
            metrics[metric] = {"value": statistics.median(durations) * scale, "unit": unit}
    # Each traced (rep, n) counts once, however many passes traced it.
    chars = tracer.distinct_total("lattice.chars")
    lam = tracer.distinct_total("lattice.lambda")
    busy = sum(tracer.durations("lattice.group_order")) + sum(tracer.durations("lattice.lefschetz"))
    metrics["lattice.chars"] = {"value": chars, "unit": "count"}
    metrics["lattice.lambda"] = {"value": lam, "unit": "count"}
    metrics["lattice.admissible_ratio"] = {"value": lam / chars, "unit": "ratio"}
    metrics["lattice.chars_per_s"] = {"value": tracer.counters["lattice.chars_timed"] / busy,
                                      "unit": "1/s"}
    return metrics


def probe_only_metrics(tracer):
    """Span metrics this workload's own operations never reached."""
    own = {s["name"] for s in tracer.spans if not str(s["op"]).startswith("probe:")}
    return [metric for metric, (span, _, _) in SPAN_METRICS.items() if span not in own]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def kernel_name():
    import delsarte

    selector = getattr(delsarte, "kernel_implementation", None)
    # Without a selector the package has only its pure-Python kernels.
    return selector() if selector else "python"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "delsarte" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'delsarte'}; run from a delsarte checkout")
    sys.path.insert(0, str(SRC))
    env = child_env()
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    # The first start compiles bytecode and warms the file cache.
    setup_samples(env, 1)
    setup = [] if args.trace else setup_samples(env, SETUP_BEFORE)

    cls = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    cases = cls.pass_cases(rng)
    if args.max_ops:
        cases = cases[:args.max_ops]
    tracer = Tracer() if args.trace else None
    passes = run_passes(cls, cases, args, env, tracer, setup, rng)
    ops = [op for results, _ in passes for op in results]

    meta.update({
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "kernel": kernel_name(),
        "DELSARTE_PURE": os.environ.get("DELSARTE_PURE"),
        "DELSARTE_WORKERS": os.environ.get("DELSARTE_WORKERS"),
        "ops_per_pass": len(cases),
        "pass_walls_s": [wall for _, wall in passes],
    })

    if args.trace:
        meta["trace_overhead"] = trace_overhead(passes)
        ops += run_probes(env, tracer)
        metrics = layer_metrics(tracer)
        meta["layer_errors"] = {layer: tracer.errors.get(layer, 0) for layer in LAYERS}
        meta["from_probes_only"] = probe_only_metrics(tracer)
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        trace_file = out / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": tracer.with_self_time(),
                                          "counters": tracer.counters}) + "\n")
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        walls = [wall for _, wall in passes if wall is not None]
        if not walls:
            sys.exit("error: no operation completed")
        # Operations of the passes that finished (a pass that did not has no wall).
        done = sum(len(results) for results, wall in passes if wall is not None)
        p50, tail_value, tail_pct, tail_samples = latencies(passes)
        meta.update({"setup_samples_s": setup, "op_tail_percentile": tail_pct,
                     "op_tail_samples": tail_samples})
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": done / sum(walls), "unit": "1/s"},
            "op_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail_value * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                            "unit": "MB"},
            "success_rate": {"value": sum(ok for _, ok, _ in ops) / len(ops), "unit": "ratio"},
        }

    attempted = len(ops)
    failed = sum(not ok for _, ok, _ in ops)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
