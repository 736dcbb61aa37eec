"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py < request.json

The request is {"workload", "cases", "traced_ops", "wrong_first", "label"}
(see workloads.run_pass). Prints one JSON object: {"results", "wall",
"spans", "errors", "counters", "per_key"}. The package's `src` must be on
PYTHONPATH.
"""

import json
import sys

from spans import Tracer
from workloads import WORKLOADS, run_pass


def main():
    request = json.load(sys.stdin)
    workload = WORKLOADS[request["workload"]]()
    cases = [tuple(case) for case in request["cases"]]
    tracer = Tracer() if request["traced_ops"] else None
    results, wall = run_pass(workload, cases, tracer, request["traced_ops"],
                             request["wrong_first"], request["label"])
    print(json.dumps({
        "results": results,
        "wall": wall,
        "spans": tracer.spans if tracer else [],
        "errors": tracer.errors if tracer else {},
        "counters": tracer.counters if tracer else {},
        "per_key": tracer.per_key if tracer else {},
    }))


if __name__ == "__main__":
    main()
