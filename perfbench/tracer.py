"""In-memory span tracer that instruments the program from outside.

Public functions are replaced by module attribute (``fasthebb.tensor.
reduce_sum``, ``fasthebb.layers.extract_patches``, ...) with wrappers that
record a span: name, start, end, parent span and optional attributes.  The
program looks these functions up through their module at call time, so the
wrappers see every call.  Spans stay in memory; ``write_jsonl`` dumps them
when the run ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from functools import wraps

_now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, sid: int, parent: int, name: str, attrs: dict):
        self.id, self.parent, self.name, self.attrs = sid, parent, name, attrs
        self.start = _now()
        self.end = 0

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, **attrs) -> Span:
        span = Span(len(self.spans), self._open[-1] if self._open else -1, name, attrs)
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = _now()
        self._open.pop()

    def traced(self, fn, name: str, on_return=None, around=None):
        """``fn`` wrapped in a span; ``on_return(span, args, result)`` may add
        attributes, ``around(args)`` may return a context manager entered
        inside the span (for example an allocation tracker)."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                if around is None:
                    result = fn(*args, **kwargs)
                else:
                    with around(span, args):
                        result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_return is not None:
                on_return(span, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, **kwargs) -> None:
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, **kwargs))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.ns
        return own

    def by_name(self, spans=None) -> dict[str, dict]:
        """calls, total_ns and self_ns summed per span name."""
        own = self.self_ns()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for s in self.spans if spans is None else spans:
            row = out[s.name]
            row["calls"] += 1
            row["total_ns"] += s.ns
            row["self_ns"] += own[s.id]
        return dict(out)

    def descendants(self, roots) -> list[Span]:
        """Every span nested (at any depth) under one of ``roots``."""
        inside = {r.id for r in roots}
        found = []
        for s in self.spans:  # parents always precede their children
            if s.parent in inside:
                inside.add(s.id)
                found.append(s)
        return found

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {"id": s.id, "parent": s.parent, "name": s.name, "start_ns": s.start, "end_ns": s.end}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec) + "\n")
