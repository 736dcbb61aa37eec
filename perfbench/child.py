"""Fresh-interpreter helper of the benchmark; needs the package's `src` on PYTHONPATH.

    python3 perfbench/child.py setup
        Prints the seconds taken by `import delsarte.cli` plus `load_catalog()`.

    python3 perfbench/child.py cli ARG...
        Runs `delsarte ARG...` in this process with spans around the public
        calls of each layer the command passes through, then prints one JSON
        object: {"stdout": <captured CLI stdout>, "exit": <exit code>,
        "spans": [...], "errors": {layer: count}}.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout

from spans import Tracer


def setup():
    start = time.perf_counter()
    import delsarte.cli  # noqa: F401
    from delsarte import load_catalog

    load_catalog()
    print(repr(time.perf_counter() - start))


def traced_cli(argv):
    tracer = Tracer()
    out = io.StringIO()
    code = 1
    try:
        with tracer.span("cli.import"):
            import delsarte.cli as cli
        if argv[0] == "census":
            from delsarte import enumerate_one_interior_classes
            from delsarte.oracles import interior_scan

            bound = int(argv[argv.index("--bound") + 1])
            with tracer.span("polygon.census"):
                classes = enumerate_one_interior_classes(bound)
            with tracer.span("oracles.interior_scan"):
                for cls in classes:
                    interior_scan(cls.vertices)
        else:
            from delsarte import classify_one_interior, convex_hull, load_catalog

            with tracer.span("catalog.load"):
                catalog = load_catalog()
            hulls = [convex_hull(catalog.support(row)) for row in catalog.rows]
            with tracer.span("polygon.classify"):
                for hull in hulls:
                    classify_one_interior(hull)
            if argv[0] == "table":
                # A fresh process, so the group and rank caches are cold.
                with tracer.span("catalog.table"):
                    catalog.reproduce_table()
        with tracer.span("cli.main"), redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    print(json.dumps({"stdout": out.getvalue(), "exit": code, "spans": tracer.spans,
                      "errors": tracer.errors}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup()
    elif sys.argv[1:2] == ["cli"] and len(sys.argv) > 2:
        traced_cli(sys.argv[2:])
    else:
        sys.exit("usage: child.py setup | child.py cli ARG...")
