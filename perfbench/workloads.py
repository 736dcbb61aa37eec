"""The benchmark workloads: seeded inputs, one operation each, answer checks.

BENCHMARK.json lists rank_sweep and cli_cold. census and oracle_verify
run by hand (`--workload census`, `--workload oracle_verify`) and in every
traced run's probes; their run-to-run spread on a shared host was too wide
for the benchmark's bounds.

A run makes passes over one seeded list of operations, each pass in a new
seeded order, as many as fit in --seconds and at least eight, and reports
medians over all of them. On a shared host, neighbours slow the machine
for stretches of seconds to minutes. Across runs of different seeds, a
median over every pass spread two to three times less than the best pass
or each operation's best time did, so no best-of figure is reported.

The package memoizes character groups, rank reports and census results,
so a repeated input would time a dictionary lookup. The in-process
workloads therefore never repeat an input within a pass, and every pass of
them runs in a fresh worker process (worker.py). The CLI workloads start a
fresh process per operation.

Everything goes through the package's public functions and its CLI.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import expected

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"
CLI_KINDS = ("table", "rank-family", "rank-rep", "lambda-family", "lambda-poly",
             "genus", "classify", "equiv")
RANK_K = (1, 2, 4, 8, 16)
CLI_ROUNDS = 2  # cli_cold: one command of each kind per round
CENSUS_OPS = 2  # census: runs of `census --bound 4` per pass
ORACLE_MAX_N = 20


def rank_keys():
    """(rep, n) with n = div * k, k in 1, 2, 4, 8, 16: |L| from 24 to 80640.

    k runs over powers of two rather than all of 1..16, so that a pass
    costs about 2 s instead of 8 s and a run can repeat it.
    """
    return [(rep, div * k) for rep, div in expected.DIVISIBILITY.items() for k in RANK_K]


def oracle_cases():
    """The oracle acceptance test's cases with n <= 20: div | n, plus 7, 9, 25.

    The test also runs n = 22..60; those cases cost about 90% of its time
    (3d@60 and 1c@60 take 6 s each), too much to repeat the list in a run.
    """
    return [
        (rep, n)
        for rep, div in expected.DIVISIBILITY.items()
        for n in [n for n in range(1, ORACLE_MAX_N + 1) if n % div == 0] + [7, 9, 25]
    ]


def load_golden():
    return json.loads((GOLDEN / "cli.json").read_text())


def run_pass(workload, cases, tracer=None, traced_ops=(), wrong_first=False, label=0):
    """Run the cases in order, closed loop.

    Operations whose index is in traced_ops are traced. With wrong_first
    the first operation is checked against a wrong answer.
    Returns ([[seconds, ok, traced], ...], wall seconds).
    """
    traced_ops = set(traced_ops)
    results = []
    start = time.perf_counter()
    for i, case in enumerate(cases):
        traced = i in traced_ops
        if tracer is not None:
            tracer.op = f"{label}:{i}"
        t0 = time.perf_counter()
        try:
            ok = workload.run(case, tracer if traced else None, wrong_first and i == 0)
        except Exception as exc:  # a failed operation, not a failed run
            print(f"op {label}:{i} {case!r}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        results.append([time.perf_counter() - t0, ok, traced])
    return results, time.perf_counter() - start


def count_group(tracer, rep, n, order, lam):
    """|L| and lambda once per (rep, n); |L| of every traced call for the rate."""
    key = f"{rep}@{n}"
    tracer.count_once("lattice.chars", key, order)
    tracer.count_once("lattice.lambda", key, lam)
    tracer.add("lattice.chars_timed", order)


class RankSweep:
    """In process: `Catalog.representative_rank(rep, n)` on distinct (rep, n)."""

    name = "rank_sweep"
    in_process = True
    probe = ("1a", 360)

    def __init__(self):
        from delsarte import load_catalog

        self.catalog = load_catalog()

    @staticmethod
    def pass_cases(rng):
        keys = rank_keys()
        rng.shuffle(keys)
        return keys

    def run(self, key, tracer, wrong=False):
        rep, n = key
        want_rank = expected.MAX_RANK[rep] + wrong
        want_lambda = expected.closed_form_lambda(rep, n)
        if tracer is None:
            report = self.catalog.representative_rank(rep, n)
            return self._report_ok(report, want_rank, want_lambda)

        from delsarte import (discriminant, euler_number, group_order, homogenize,
                              lattice_generators, lefschetz_number, mordell_weil_rank,
                              rho_triv, second_betti)

        cat = self.catalog
        # The parent span makes the calls of representative_rank, each once.
        with tracer.span("catalog.rank"):
            terms = cat.family_terms(rep, n)
            with tracer.span("lattice.homogenize"):
                matrix = homogenize(terms)
            # First call on a fresh matrix enumerates the group (lattice
            # generators included); the count right after reuses it.
            with tracer.span("lattice.group_order"):
                order = group_order(matrix)
            with tracer.span("lattice.lefschetz"):
                lam = lefschetz_number(matrix)
            with tracer.span("fibers.shioda_tate"):
                config = cat.fibers_at(rep, n)
                euler_number(config)
                h2 = second_betti(config)
                rho = rho_triv(config)
                rank = mordell_weil_rank(h2, lam, rho)
            with tracer.span("weierstrass.delta_check"):
                delta_ok = discriminant(cat.weierstrass_at(rep, n)) == cat.delta_at(rep, n)
        # Outside the parent span: the generators alone, and the package's own
        # call for its report's checks.
        with tracer.span("exact.generators"):
            lattice_generators(matrix)
        report = cat.representative_rank(rep, n)
        count_group(tracer, rep, n, order, lam)
        return (
            self._report_ok(report, want_rank, want_lambda)
            and delta_ok
            and (order, lam, rank) == (report.group_order, report.lefschetz, report.rank)
        )

    @staticmethod
    def _report_ok(report, want_rank, want_lambda):
        return (
            report.rank == want_rank
            and report.lefschetz == want_lambda
            and all(ok for _, ok in report.checks)
        )


class OracleVerify:
    """In process: `brute_lambda(m) == lefschetz_number(m)` on the oracle test's cases."""

    name = "oracle_verify"
    in_process = True
    probe = ("2b", 7)

    def __init__(self):
        from delsarte import load_catalog

        self.catalog = load_catalog()

    @staticmethod
    def pass_cases(rng):
        cases = oracle_cases()
        rng.shuffle(cases)
        return cases

    def run(self, key, tracer, wrong=False):
        from delsarte import group_order, homogenize, lefschetz_number
        from delsarte.oracles import brute_lambda

        rep, n = key
        terms = self.catalog.family_terms(rep, n)
        if tracer is None:
            matrix = homogenize(terms)
            brute = brute_lambda(matrix)
            fast = lefschetz_number(matrix)
        else:
            with tracer.span("lattice.homogenize"):
                matrix = homogenize(terms)
            with tracer.span("oracles.brute_lambda"):
                brute = brute_lambda(matrix)
            with tracer.span("lattice.group_order"):
                order = group_order(matrix)
            with tracer.span("lattice.lefschetz"):
                fast = lefschetz_number(matrix)
            count_group(tracer, rep, n, order, fast)
        form = expected.closed_form_lambda(rep, n)
        return brute == fast + wrong and (form is None or brute == form)


class _CliWorkload:
    """One `python -m delsarte.cli ...` process per operation, stdout checked byte for byte."""

    in_process = False

    def __init__(self, env):
        self.env = env

    def run(self, case, tracer, wrong=False):
        argv, want = case["argv"], case["stdout"] + ("\n" if wrong else "")
        if tracer is None:
            proc = subprocess.run([sys.executable, "-m", "delsarte.cli", *argv],
                                  capture_output=True, env=self.env, timeout=150)
            return proc.returncode == 0 and proc.stdout == want.encode() and self.check(proc.stdout)
        with tracer.span("cli.process"):
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "cli", *argv],
                                  capture_output=True, env=self.env, timeout=150)
            result = json.loads(proc.stdout.decode().splitlines()[-1])
            tracer.adopt(result["spans"], result["errors"])
        return (proc.returncode == 0 and result["exit"] == 0 and result["stdout"] == want
                and self.check(result["stdout"].encode()))

    def check(self, stdout):
        return True


class CliCold(_CliWorkload):
    """Cold CLI runs of the README commands over the table rows at their table parameters."""

    name = "cli_cold"
    probe_kind = "table"

    @staticmethod
    def pass_cases(rng):
        """CLI_ROUNDS groups of one command of each kind, with seeded arguments."""
        golden = load_golden()
        picks = {kind: rng.sample(golden[kind], min(CLI_ROUNDS, len(golden[kind])))
                 for kind in CLI_KINDS}
        cases = []
        for r in range(CLI_ROUNDS):
            round_ = [picks[kind][r % len(picks[kind])] for kind in CLI_KINDS]
            rng.shuffle(round_)
            cases += round_
        return cases


class Census(_CliWorkload):
    """`delsarte census --bound 4 --json`, one fresh process per operation."""

    name = "census"
    probe_kind = "census"

    @staticmethod
    def pass_cases(rng):
        return load_golden()["census"] * CENSUS_OPS

    def check(self, stdout):
        return expected.census_ok(json.loads(stdout))


WORKLOADS = {w.name: w for w in (RankSweep, CliCold, Census, OracleVerify)}
