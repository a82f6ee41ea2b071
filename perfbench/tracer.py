"""Spans recorded from the benchmark's own code, around calls into the
program's public functions and methods.

:meth:`Tracer.wrap` replaces one attribute (a method of an instance or
a class, or a module-level function) with a timing wrapper and
:meth:`Tracer.restore` puts every original back.  Spans are aggregated
in memory as they close:

* ``total[name]`` — inclusive seconds of the outermost spans of a name
  (a span nested in a span of the same name, such as a flush that
  flushes the rest of its queue, is not counted twice);
* ``covered[name]`` — the part of that time its direct child spans
  account for, so ``1 - covered / total`` is the share no child explains;
* ``calls[name]`` and free-form counters (``count``).
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("name", "start", "child_s", "nested")

    def __init__(self, name: str, start: float, nested: bool) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0
        self.nested = nested


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.total: dict = defaultdict(float)
        self.covered: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(float)
        # (start, end) of the outermost spans of the names in ``keep``
        self.keep: set = set()
        self.intervals: dict = defaultdict(list)
        self._stack: list[_Frame] = []
        self._active: dict = defaultdict(int)
        self._undo: list = []

    # -- spans -----------------------------------------------------------------------
    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock(), self._active[name] > 0)
        self._active[name] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = self.clock()
        duration = end - frame.start
        self._stack.pop()
        self._active[frame.name] -= 1
        self.calls[frame.name] += 1
        parent = self._stack[-1] if self._stack else None
        if frame.nested:
            # transparent: its children count for the enclosing span
            if parent is not None:
                parent.child_s += frame.child_s
            return
        self.total[frame.name] += duration
        self.covered[frame.name] += frame.child_s
        if frame.name in self.keep:
            self.intervals[frame.name].append((frame.start, end))
        if parent is not None:
            parent.child_s += duration

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- wrapping ---------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None,
             before=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``after(result, args, kwargs, state)`` runs inside the span once
        the call returns, for counters that need the call's operands;
        ``state`` is what ``before(args, kwargs)`` returned just before
        the call (``None`` without ``before``), for per-call deltas."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                state = None if before is None else before(args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs, state)
                return result
            finally:
                tracer._exit(frame)

        self._replace(owner, attr, wrapper)

    def bridge(self, telemetry, names: dict) -> None:
        """Open a span whenever the program's own ``telemetry.trace``
        opens one of ``names`` (program span -> tracer span): a boundary
        the program draws inside a method the benchmark cannot wrap."""
        original = telemetry.trace
        tracer = self

        @contextlib.contextmanager
        def trace(name, **attrs):
            with original(name, **attrs) as span:
                if name in names:
                    with tracer.span(names[name]):
                        yield span
                else:
                    yield span

        self._replace(telemetry, "trace", trace)

    def _replace(self, owner, attr: str, value) -> None:
        had_own = attr in getattr(owner, "__dict__", {})
        own_value = owner.__dict__[attr] if had_own else None
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had_own, own_value))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, value = self._undo.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- views ------------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {"total": dict(self.total), "covered": dict(self.covered),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    @staticmethod
    def combine(*parts) -> dict:
        """Sum of snapshots; ``(snap, -1)`` subtracts one."""
        out = {"total": defaultdict(float), "covered": defaultdict(float),
               "calls": defaultdict(float), "counts": defaultdict(float)}
        for part in parts:
            snap, sign = part if isinstance(part, tuple) else (part, 1)
            for key, table in snap.items():
                for name, value in table.items():
                    out[key][name] += sign * value
        return out


def unattributed_shares(agg: dict, parents, limit: float) -> dict:
    """Per parent span, the share of its time no child span covers, plus
    how many parents exceed ``limit``."""
    out = {f"unattributed.{parent}": unattributed(agg, parent)
           for parent in parents}
    out["unattributed.flagged"] = sum(share > limit
                                      for share in out.values())
    return out


def unattributed(agg: dict, parent: str) -> float:
    """Share of a parent span's time its child spans do not cover."""
    total = agg["total"].get(parent, 0.0)
    if total <= 0:
        return 0.0
    return max(0.0, total - agg["covered"].get(parent, 0.0)) / total
