"""In-memory spans recorded by the benchmark around its calls into trop.

A span is (name, start, end, parent index, op id).  Spans stay in a
list until the run ends; nothing is written while the clock runs.
Nothing here reaches into ``src/``: the spans wrap the benchmark's own
calls to public functions.
"""

import json
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self._open = []

    def begin(self, name, op):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, op])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = perf_counter()

    def record(self, name, start, end, op):
        """Add a finished span whose times were taken by the caller."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, op])

    def call(self, name, op, fn, *args):
        self.begin(name, op)
        try:
            return fn(*args)
        finally:
            self.end()

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def summary(self):
        """Per span name: count, total seconds, self seconds (total minus
        the time covered by child spans) and median seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = by_name.setdefault(name, [0, 0.0, 0.0, []])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
            entry[3].append(end - start)
        return {
            name: {
                "count": count,
                "total_s": total,
                "self_s": self_s,
                "median_s": statistics.median(durs),
            }
            for name, (count, total, self_s, durs) in sorted(by_name.items())
        }

    def write(self, path):
        """Write every span as one JSON line, in start order."""
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps([name, start, end, parent, op]) + "\n")
