"""In-memory span tracer that wraps functions from outside the program.

A wrapped call becomes either a span (name, start, end, parent) kept in a list,
or, for calls made thousands of times per run, a folded call that only adds to
per-name totals.  Both kinds add their duration to the enclosing call, so each
name's self time is its duration minus the time of the wrapped calls inside it.
Nothing is written until the caller asks for `to_json()`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # (folded name, name of the nearest enclosing span) -> calls
        self.calls_under: dict[tuple[str, str], int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child seconds, span index or None]

    def _enclosing_span(self) -> tuple[int, str]:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3], frame[0]
        return -1, ""

    def enter(self, name: str, fold: bool = False) -> list:
        span_index = None
        if not fold:
            parent, _ = self._enclosing_span()
            span_index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        frame = [name, time.perf_counter(), 0.0, span_index]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child, span_index = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name} closed out of order")
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_index is None:
            self.calls_under[(name, self._enclosing_span()[1])] += 1
        else:
            self.spans[span_index][1:3] = [start - self.origin, end - self.origin]
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def wrap(self, name: str, fn, fold: bool = False, after=None):
        """Return fn traced under `name`; after(args, kwargs, result, seconds)
        runs once the call has returned, outside the timed interval."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name, fold)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.exit(frame)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return traced

    def module_self_s(self) -> dict[str, float]:
        """Self time summed per module, the first component of each name."""
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "by_name": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "calls_under": [[n, p, c] for (n, p), c in sorted(self.calls_under.items())],
            "counters": dict(self.counters),
        }


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False
