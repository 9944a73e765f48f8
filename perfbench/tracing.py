"""In-memory spans and counts around calls into ``rectilab``.

The benchmark routes every call it times through ``tracer.call``.  With
``NullTracer`` that is a plain call; with ``Tracer`` it records a span
(name, start, end, parent span, pass).  ``Tracer.count_calls`` swaps a
module attribute for a counting wrapper, which also catches the calls the
library makes to that name internally.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter


class NullTracer:
    enabled = False
    prefix = ""
    pass_id = 0

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, k=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = {}
        self.pass_id = 0
        self.prefix = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "name": self.prefix + name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = perf_counter()
            self._stack.pop()

    def count(self, name, k=1):
        self.counts.setdefault(self.pass_id, Counter())[self.prefix + name] += k

    def count_calls(self, module, attr: str, name: str):
        original = getattr(module, attr)

        def counted(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, counted)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def span_medians(self, passes) -> dict[str, float]:
        """Per span name, the median over ``passes`` of its total time in a pass."""
        totals: dict[str, dict[int, float]] = {}
        for span in self.spans:
            if span["pass"] in passes:
                per_pass = totals.setdefault(span["name"], dict.fromkeys(passes, 0.0))
                per_pass[span["pass"]] += span["end"] - span["start"]
        return {name: statistics.median(v.values()) for name, v in totals.items()}

    def count_medians(self, passes) -> dict[str, float]:
        names = {n for p in passes for n in self.counts.get(p, ())}
        return {
            n: statistics.median(self.counts.get(p, Counter())[n] for p in passes) for n in names
        }

    def write(self, path: Path, summary: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        counts = {str(p): dict(c) for p, c in self.counts.items()}
        with open(path, "w") as fh:
            json.dump({"summary": summary, "counts": counts, "spans": self.spans}, fh)
