"""Self-test of the benchmark: python3 -m pytest perfbench

Tiny runs of every workload check that each metric named in BENCHMARK.json
is emitted with its unit, that a wrong expected answer is counted as a
failed operation, and that no in-process input repeats within a pass (each
pass of them runs in its own worker process).
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from make_golden import paper_fact_failures
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_workloads_exist_in_harness():
    # oracle_verify stays runnable by hand and feeds the traced probes.
    assert set(NAMES) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    result = result_of(bench("--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--max-ops", "3"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        metrics = result["metrics"]
        assert metrics["op_tail_ms"]["value"] >= metrics["op_p50_ms"]["value"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_expected_answer_is_a_failure(name):
    result = result_of(bench("--workload", name, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--max-ops", "2", "--wrong-expected"))
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["success_rate"]["value"] == 0.5


def test_refuses_to_run_without_package_source():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "rank_sweep", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("seed", range(5))
def test_in_process_inputs_never_repeat(seed):
    for cls, size in ((workloads.RankSweep, 55), (workloads.OracleVerify, 59)):
        keys = cls.pass_cases(random.Random(seed))
        assert len(keys) == len(set(keys)) == size


@pytest.mark.parametrize("seed", range(5))
def test_cli_passes_hold_each_kind_equally_often(seed):
    golden = workloads.load_golden()
    kind_of = {json.dumps(case["argv"]): kind for kind, cases in golden.items() for case in cases}
    cases = workloads.CliCold.pass_cases(random.Random(seed))
    kinds = sorted(kind_of[json.dumps(case["argv"])] for case in cases)
    assert kinds == sorted(workloads.CLI_KINDS * (len(cases) // len(workloads.CLI_KINDS)))


def test_golden_outputs_hold_the_paper_facts():
    assert paper_fact_failures(workloads.load_golden()) == []


def test_tail_is_the_highest_sample_with_ten_above():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)
    assert run.tail(list(range(20))) == (19, 100.0)
    assert run.tail(list(range(21))) == (10, 100.0 * 11 / 21)


def test_tail_reaches_the_slowest_commands():
    # cli_cold's shape: 16 operations a pass, the two `table` runs slowest.
    times = [0.2] * 14 + [0.5, 0.5]
    passes = [([[t * (1 + p / 100), True, False] for t in times], 4.0) for p in range(7)]
    p50, tail_value, pct, count = run.latencies(passes)
    assert count == 16 * 7 and 90 < pct < 100
    assert tail_value >= 0.5 > p50


def test_tail_is_never_below_p50():
    rng = random.Random(0)
    for _ in range(200):
        ops, passes = rng.randint(1, 40), rng.randint(1, 8)
        base = [rng.expovariate(1.0) for _ in range(ops)]
        runs = [([[t * rng.uniform(1, 2), True, False] for t in base], 1.0) for _ in range(passes)]
        p50, tail_value, _, _ = run.latencies(runs)
        assert tail_value >= p50


def test_group_counts_do_not_depend_on_repeats():
    tracer = Tracer()
    for _ in range(3):
        workloads.count_group(tracer, "1a", 360, 100, 648)
    workloads.count_group(tracer, "2b", 12, 24, 6)
    assert tracer.distinct_total("lattice.chars") == 124
    assert tracer.distinct_total("lattice.lambda") == 654
    assert tracer.counters["lattice.chars_timed"] == 324


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("a.outer"):
        with tracer.span("b.inner"):
            pass
    outer, inner = tracer.with_self_time()
    assert inner["parent"] == 0
    assert outer["self"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))
    with pytest.raises(ValueError), tracer.span("c.fails"):
        raise ValueError
    assert tracer.errors == {"c": 1}
