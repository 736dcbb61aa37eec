"""Replayable mutants: small breaks of the package that the tier-1 tests must catch.

Run from the repository root:

    python tests/mutants.py

Each mutant is one or more edits (file, exact old text, new text), the
file relative to the repository root. For each mutant the runner copies
src/, tests/, perfbench/golden/ and pyproject.toml into a temporary
directory, applies the edits there and runs the tier-1 tests with -x -q.
An old text that does not occur exactly once is an error, so the list
cannot go stale silently. The mutant is caught when the tests fail. The
unmutated copy must pass first. The runner prints one line per mutant
and the count caught out of the count run, and exits 1 if any mutant
survives or cannot be run.

A fast path or an oracle that is added comes with its mutants. Never
delete or weaken a mutant to make the run pass; an equivalent mutant may
be marked as such, with the argument.

pytest does not collect this file: its name has no test_ prefix.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench/golden", "pyproject.toml")

MUTANTS = {
    "admissible compare flipped": [
        ("src/delsarte/lattice.py", "(t * c3) % m != twice:", "(t * c3) % m == twice:"),
    ],
    "discriminant without -16": [
        ("src/delsarte/weierstrass.py", "return -16 * j_invariant(curve)[1]", "return j_invariant(curve)[1]"),
    ],
    "basis without the pivot's order": [
        ("src/delsarte/lattice.py", "basis.append((tuple(row), q // pivot))", "basis.append((tuple(row), q))"),
    ],
    "zero-mask skip disabled": [
        ("src/delsarte/lattice.py", "            if mask & bits:\n                continue\n", ""),
    ],
    "second_betti off by one": [
        ("src/delsarte/fibers.py", "return euler_number(config) - 2", "return euler_number(config) - 1"),
    ],
    "identities_at ignores jnum": [
        ("src/delsarte/oracles.py", " or j_num * den != 1728 * cubed * j_den", ""),
    ],
    "SparsePoly equality always true": [
        ("src/delsarte/weierstrass.py", "        return self._coeffs == other._coeffs\n", "        return True\n"),
    ],
    "admissibility memo keyed on the numerators over M": [
        (
            "src/delsarte/lattice.py",
            "            if _admissible(cell, order):\n",
            "            if _admissible(tuple(c * (modulus // order) for c in cell), modulus):\n",
        ),
    ],
    "I* Euler offset 7": [
        ("src/delsarte/fibers.py", '    "I*": (6, 5, 0),\n', '    "I*": (7, 5, 0),\n'),
    ],
    "GroupOrderError check removed": [
        ("src/delsarte/lattice.py", "    if enumerated != predicted:\n        raise GroupOrderError(", "    if False:\n        raise GroupOrderError("),
    ],
    "any digit run accepted as a coefficient": [
        ("src/delsarte/cli.py", '        if number not in (None, "1"):\n', "        if False:\n"),
    ],
    "a term may open with '*'": [
        ("src/delsarte/cli.py", "        elif term is None:\n", '        elif term is None and op != "*":\n'),
    ],
    "identities_at fails a zero discriminant again": [
        ("src/delsarte/oracles.py", "    return None if den == 0 else True\n", "    return den != 0\n"),
    ],
    "12 chi check removed": [
        ("src/delsarte/catalog.py", "            if euler % 12:", "            if False:"),
    ],
}


def _apply(root: Path, edits):
    for name, old, new in edits:
        path = root / name
        text = path.read_text()
        count = text.count(old)
        if count != 1:
            raise ValueError(f"{name}: old text occurs {count} times, not once: {old!r}")
        path.write_text(text.replace(old, new))


def _tier1(edits):
    """(pytest exit code, its output) on a fresh copy with the edits applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source, target = ROOT / name, root / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        _apply(root, edits)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=root, env=env, capture_output=True, text=True,
        )
        return result.returncode, result.stdout + result.stderr


def main() -> int:
    code, output = _tier1([])
    if code != 0:
        print(f"the unmutated copy fails its tests (pytest exit {code}):\n{output}", file=sys.stderr)
        return 1
    caught = 0
    for name, edits in MUTANTS.items():
        start = time.perf_counter()
        try:
            code, output = _tier1(edits)
        except ValueError as exc:
            code, output = None, str(exc)
        elapsed = time.perf_counter() - start
        # pytest exits 1 when a test fails; 0 is a survivor, anything else an error.
        verdict = {0: "SURVIVED", 1: "caught"}.get(code, "ERROR")
        print(f"{verdict:<8} {name} ({elapsed:.1f} s)")
        if code == 1:
            caught += 1
        elif code != 0:
            print(output.strip().splitlines()[-1] if output.strip() else "(no output)")
    print(f"{caught}/{len(MUTANTS)} mutants caught")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
