"""In-memory spans and counters for the traced run.

Spans are recorded by the benchmark around its calls into the library; each
has a name, start and end (seconds since the tracer started), its parent
span, the job it belongs to, and whether it is a derived replay (run after
the job span to split a call into its public sub-steps).  They are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        self.record[3] = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = perf_counter() - tracer.origin
        return self.record

    def __exit__(self, *exc):
        self.record[2] = perf_counter() - self.tracer.origin
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans = []          # [name, start, end, parent, job, derived]
        self.stack = []
        self.job = None
        self.derived = False
        self.counts = defaultdict(float)

    def span(self, name):
        return _Span(self, [name, None, None, None, self.job, self.derived])

    def count(self, name, value=1):
        """Add to a counter; counters named ``*_max`` keep the maximum."""
        if name.endswith("_max"):
            self.counts[name] = max(self.counts[name], value)
        else:
            self.counts[name] += value

    def seconds(self, name, derived=None) -> float:
        return sum(end - start for n, start, end, _, _, d in self.spans
                   if n == name and (derived is None or d == derived))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, derived) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "derived": derived}) + "\n")
