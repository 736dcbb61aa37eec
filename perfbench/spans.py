"""In-memory span recorder for the traced benchmark run.

A span has a name (`<layer>.<call>`), start and end (perf_counter
seconds), the index of its parent span and the id of the operation it
belongs to. Spans stay in memory and are written out when the run ends.
Exceptions escaping a span are counted against its layer. Counters either
add up over every call (`add`) or hold one value per input key
(`count_once`), so that their sums do not depend on how often an input ran.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.per_key = {}
        self.errors = {}
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except Exception:
            self.count_error(name)
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count_error(self, name):
        layer = name.split(".", 1)[0]
        self.errors[layer] = self.errors.get(layer, 0) + 1

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def count_once(self, counter, key, value):
        """Record the counter's value for one input key; a repeated key overwrites it."""
        self.per_key.setdefault(counter, {})[key] = value

    def distinct_total(self, counter):
        """Sum of the counter over the distinct keys recorded for it."""
        return sum(self.per_key.get(counter, {}).values())

    def adopt(self, spans, errors, counters=None, per_key=None):
        """Append spans recorded in another process under the current span.

        Spans without an operation id join the current operation.
        """
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for record in spans:
            local = record["parent"]
            self.spans.append(dict(
                record,
                op=self.op if record["op"] is None else record["op"],
                parent=parent if local is None else base + local,
            ))
        for layer, count in errors.items():
            self.errors[layer] = self.errors.get(layer, 0) + count
        for counter, value in (counters or {}).items():
            self.add(counter, value)
        for counter, values in (per_key or {}).items():
            for key, value in values.items():
                self.count_once(counter, key, value)

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def with_self_time(self):
        """Spans with `self` = duration minus the time covered by direct children."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        return [
            dict(record, self=record["end"] - record["start"] - child_time[i])
            for i, record in enumerate(self.spans)
        ]
