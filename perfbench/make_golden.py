#!/usr/bin/env python3
"""Regenerate the benchmark's golden files from the package at this checkout.

    python3 perfbench/make_golden.py

Writes golden/cli.json: the CLI commands of the cli_cold and census
workloads with their exact --json stdout. The outputs are first checked
against the paper facts in expected.py; nothing is written if one fails.
Run it only when an output format changes on purpose.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import expected
from workloads import CLI_KINDS, GOLDEN

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def poly_text(terms):
    """A four-term polynomial in the CLI's syntax, e.g. '1 + t^60 X^3 + X^3 + Y^2'."""
    out = []
    for exps in terms:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("tXY", exps) if e]
        out.append(" ".join(factors) or "1")
    return " + ".join(out)


def commands(catalog):
    rows = list(catalog.rows.values())
    polys = [poly_text(catalog.family_terms(row.id, row.table_n)) for row in rows]
    reps = sorted({(row.rep, catalog.table_parameter(row.id)) for row in rows})
    cmds = {kind: [] for kind in CLI_KINDS + ("census",)}
    cmds["table"].append(["table"])
    cmds["census"].append(["census", "--bound", "4"])
    cmds["rank-rep"] += [["rank", "--rep", rep, "--n", str(n)] for rep, n in reps]
    for i, row in enumerate(rows):
        n = str(row.table_n)
        poly, other = polys[i], polys[(i + 1) % len(rows)]
        # Rows with an neff reach their maximal rank above table_n; rank them
        # at the family parameter that maps onto the representative's.
        rank_n = catalog.table_parameter(row.id) / row.nmap
        cmds["rank-family"].append(["rank", "--family", row.id, "--n", str(int(rank_n))])
        cmds["lambda-family"].append(["lambda", "--family", row.id, "--n", n])
        cmds["lambda-poly"].append(["lambda", "--poly", poly])
        cmds["genus"].append(["genus", "--poly", poly])
        cmds["classify"].append(["classify", "--poly", poly])
        cmds["equiv"].append(["equiv", "--poly", poly, "--poly", other])
    return cmds


def run_cli(argv, env):
    proc = subprocess.run([sys.executable, "-m", "delsarte.cli", *argv, "--json"],
                          capture_output=True, env=env, check=True)
    return proc.stdout.decode()


def paper_fact_failures(golden):
    """The paper facts the golden outputs contradict; empty when all hold."""
    def payload(kind, argv):
        case = next(c for c in golden[kind] if c["argv"][:len(argv)] == argv)
        return json.loads(case["stdout"])

    table = payload("table", ["table"])
    ex = expected.WORKED_EXAMPLE
    family = ["--family", ex["family"], "--n", str(ex["n"])]
    rank = payload("rank-family", ["rank", *family])
    facts = {
        "42/42 table rows match": len(table) == expected.TABLE_ROWS
        and all(row["match"] for row in table),
        "maximum rank 68": max(row["computed_rank"] for row in table) == expected.GLOBAL_MAX_RANK,
        "1d@60 lambda 98": payload("lambda-family", ["lambda", *family])["lambda"] == ex["lambda"],
        "1d@60 rank 18": (rank["lambda"], rank["rank"]) == (ex["lambda"], ex["rank"]),
        "every representative at its maximal rank": all(
            json.loads(c["stdout"])["rank"] == expected.MAX_RANK[json.loads(c["stdout"])["family"]]
            for c in golden["rank-rep"]
        ),
        "16 census classes, 12 with <= 4 corners": expected.census_ok(payload("census", ["census"])),
    }
    return [fact for fact, ok in facts.items() if not ok]


def main():
    from delsarte import load_catalog

    catalog = load_catalog()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    golden = {
        kind: [{"argv": argv + ["--json"], "stdout": run_cli(argv, env)} for argv in argvs]
        for kind, argvs in commands(catalog).items()
    }
    failures = paper_fact_failures(golden)
    if failures:
        sys.exit(f"not written; golden outputs contradict: {', '.join(failures)}")
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "cli.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} CLI outputs")


if __name__ == "__main__":
    main()
