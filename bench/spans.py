"""In-memory span recorder for the traced benchmark run.

A span is one call the benchmark makes into a layer's public function:
name ("<layer>.<function>"), start, end, parent span and trial id. Spans stay
in memory until the run ends; `write_jsonl` then writes them out. A layer's
self time is its spans' durations minus the part covered by child spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_NULL = contextlib.nullcontext()


class Spans:
    """Span recorder; a disabled recorder hands out a no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[list] = []  # [name, start, end, parent, trial]
        self._stack: list[int] = []

    def span(self, name: str, trial=None):
        if not self.enabled:
            return _NULL
        return self._span(name, trial)

    @contextlib.contextmanager
    def _span(self, name: str, trial):
        sid = len(self.records)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, trial]
        self.records.append(rec)
        self._stack.append(sid)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name."""
        return [r[2] - r[1] for r in self.records if r[0] == name]

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per layer (the name's prefix before '.')."""
        child = [0.0] * len(self.records)
        for r in self.records:
            if r[3] >= 0:
                child[r[3]] += r[2] - r[1]
        out: dict[str, float] = defaultdict(float)
        for k, r in enumerate(self.records):
            out[r[0].split(".", 1)[0]] += (r[2] - r[1]) - child[k]
        return dict(out)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for k, (name, start, end, parent, trial) in enumerate(self.records):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost in seconds of recording one empty span."""
    probe = Spans(True)
    t0 = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe.empty"):
            pass
    return (time.perf_counter() - t0) / samples
