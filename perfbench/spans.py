"""In-memory spans around the benchmark's calls into penphase.

A span records its name, start, end, the span that caused it and the
request it belongs to. Spans stay in memory and are written out once, when
the run ends, so that writing them costs nothing inside the timed calls.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Direct:
    """Untraced calls: the same interface as `Tracer`, with no bookkeeping."""

    def __call__(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass


direct = Direct()


class Tracer:
    """Calls `tracer(name, fn, *args)` inside a span named `name`; `count`
    records a value at the same boundary."""

    def __init__(self):
        # (id, parent, request, name, start, end)
        self.spans = []
        self.counts = {}
        self._stack = []
        self._request = None

    @contextmanager
    def span(self, name, request=None):
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on exit
        parent = self._stack[-1] if self._stack else None
        outer_request = self._request
        if request is not None:
            self._request = request
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._request, name, start, end)
            self._request = outer_request

    def __call__(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, value=1):
        self.counts.setdefault(name, []).append(value)

    def durations(self):
        """Span durations in seconds, grouped by name."""
        out = {}
        for _, _, _, name, start, end in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                }) + "\n")
