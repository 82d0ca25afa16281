"""In-memory spans around the benchmark's calls into each layer."""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans with a name, start, end and the span that caused them.

    Spans stay in memory; :meth:`write` saves them when the run ends.
    Durations come from ``time.perf_counter``; starts are wall-clock
    seconds so that Spark's stage times (epoch milliseconds) nest under
    them.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.time(), **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec["dur"] = time.perf_counter() - t0
            rec["end"] = rec["start"] + rec["dur"]
            self._stack.pop()

    def adopt(self, child: dict, parent_id: int | None) -> None:
        """Record a span measured elsewhere (a Spark stage) under a parent."""
        rec = dict(child, id=len(self.spans), parent=parent_id)
        rec.setdefault("dur", rec["end"] - rec["start"])
        self.spans.append(rec)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1))
