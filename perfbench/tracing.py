"""Spans around the benchmark's own calls into cachenet.

Every call the benchmark makes into a public cachenet function goes through
``Tracer.call``. Enabled, it records one span per call: name, start, end,
parent span and op id. Spans stay in memory and are written out once, when
the run ends. Disabled, ``call`` is a plain call, which is how every
end-to-end figure is measured.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


def _wall(start: float, end: float) -> float:
    return end - start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = "setup"  # op id stamped on every span opened from now on
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[END] = perf_counter()
            self._open.pop()

    def busy(self, first: int = 0, last: int | None = None, duration=_wall) -> dict[str, float]:
        """Summed span duration per name over ``spans[first:last]``, each
        span measured by ``duration(start, end)``."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans[first:last]:
            out[s[NAME]] += duration(s[START], s[END])
        return out

    def self_time(self, name: str, first: int = 0, duration=_wall) -> float:
        """Duration of the spans called ``name`` minus that of their children."""
        total = 0.0
        for s in self.spans[first:]:
            if s[NAME] == name:
                total += duration(s[START], s[END])
            elif s[PARENT] is not None and self.spans[s[PARENT]][NAME] == name:
                total -= duration(s[START], s[END])
        return total

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "op")
        with path.open("w", encoding="ascii") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **dict(zip(fields, s))}) + "\n")
