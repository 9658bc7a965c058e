"""In-memory spans around calls into sigdrift's layers.

The benchmark never edits the program.  A traced run swaps a public
function, as the calling module sees it, for a wrapper that records a
span and then calls the original; the swap is undone when the run ends.
Spans stay in memory and are written out once, at the end.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType


class Tracer:
    """Spans as (id, parent id, operation, name, start, end) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0  # spans of one timed operation share this id
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs outside it, so
        counting work done does not inflate the layer's own time."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, key, span name, after)`` for the block.

        ``owner`` is a module (the attribute is swapped) or a dict (the
        item is swapped).  Originals come back even if the block raises.
        """
        saved = []
        try:
            for owner, key, name, after in targets:
                original = _get(owner, key)
                saved.append((owner, key, original))
                _set(owner, key, self.wrap(name, original, after))
            yield
        finally:
            for owner, key, original in reversed(saved):
                _set(owner, key, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (the total
        minus the time covered by direct child spans)."""
        child_time: dict[int, float] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for sid, _, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(sid, 0.0)
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "meta": meta,
            "summary": self.summary(),
            "spans": [
                {"id": sid, "parent": parent, "op": op, "name": name,
                 "start": start, "end": end}
                for sid, parent, op, name, start, end in self.spans
            ],
        }
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _get(owner, key):
    return getattr(owner, key) if isinstance(owner, ModuleType) else owner[key]


def _set(owner, key, value) -> None:
    if isinstance(owner, ModuleType):
        setattr(owner, key, value)
    else:
        owner[key] = value
