"""In-memory spans recorded around calls into the program.

A ``Tracer`` replaces chosen module or class attributes with wrappers that
open a span on entry and close it on exit.  The benchmark runs in one
thread, so spans nest by call order and an open-span stack gives each one
its parent.  A span is ``[name, start, end, parent, tag]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 for a
root) and ``tag`` an optional value a wrapper attaches after the call, such
as bytes written.  Spans stay in memory; ``export`` hands them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time

NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager around a block; yields the span's index."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Trace every call made through ``owner.attr``.

        ``tag(args, kwargs, result)`` runs after the span closes, so its own
        cost is not counted, and its value is stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if tag is not None:
                tracer.spans[idx][TAG] = tag(args, kwargs, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_tape_record(self, tape_cls) -> None:
        """Trace each backward closure a tape records, named by the function
        that defined it, read from the closure's ``__qualname__``
        (``lstm_layer.<locals>.back`` -> ``backward.lstm_layer``)."""
        original = tape_cls.record
        tracer = self

        def record(tape, backward_fn):
            scopes = backward_fn.__qualname__.split(".<locals>.")
            name = "backward." + (scopes[-2] if len(scopes) > 1 else scopes[0])

            def timed():
                idx = tracer.open(name)
                try:
                    backward_fn()
                finally:
                    tracer.close(idx)
            original(tape, timed)

        self._patched.append((tape_cls, "record", original))
        tape_cls.record = record

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def export(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "tag": s[TAG]} for s in self.spans]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children's intervals are merged before they are subtracted, so time two
    overlapping children share counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, s[START]), min(end, s[END])
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s[END] - s[START]) - covered)
    return out
