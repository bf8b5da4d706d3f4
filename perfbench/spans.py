"""In-memory spans for the traced run, recorded from outside the program.

The traced run wraps public entry points of ``repro`` for the duration of
one run and restores them afterwards. Nothing under ``src/`` changes: a
wrapped function is replaced in its defining module *and* in every
``repro`` module that imported it by name, and a wrapped method is
replaced on its class.

Spans are ``(name, start, end, parent)`` tuples kept in a list until the
run ends. A span's self time is its duration minus the part of its
interval that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.phase = phase


class Tracer:
    """Records spans per thread and patches entry points to emit them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list = []

    # -------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, *, phase: bool = False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), parent, phase)
        with self._lock:
            self.spans.append(record)
        stack.append(record)
        return record

    def end(self, record: Span) -> None:
        record.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()

    def phase(self, name: str):
        """A benchmark phase: the root every layer span of that phase nests in."""
        return _SpanContext(self, name, phase=True)

    def wrap(self, fn, name: str, measure=None):
        """``fn`` with a span around each call; ``measure`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(record)
            self.counts[name + ".calls"] += 1
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # ----------------------------------------------------------- patching
    def patch_function(self, module: str, attr: str, name: str, measure=None):
        """Wrap ``module.attr`` everywhere a ``repro`` module holds it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(original, name, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def patch_method(self, module: str, cls_name: str, attr: str, name: str,
                     measure=None):
        """Wrap a method, static method or property getter on its class."""
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            patched = property(self.wrap(raw.fget, name, measure), raw.fset,
                               raw.fdel, raw.__doc__)
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(raw.__func__, name, measure))
        elif isinstance(raw, classmethod):
            patched = classmethod(self.wrap(raw.__func__, name, measure))
        else:
            patched = self.wrap(raw, name, measure)
        setattr(cls, attr, patched)
        self._restore.append((cls, attr, raw))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()

    # ----------------------------------------------------------- analysis
    def self_times(self) -> dict:
        """``{span name: summed self seconds}`` over finished spans."""
        return self_times(self.spans)

    def phase_breakdown(self) -> dict:
        """``{phase name: {layer span name: self seconds}}``."""
        out: dict = {}
        children = _children(self.spans)
        for record in self.spans:
            if not record.phase or record.end is None:
                continue
            table = out.setdefault(record.name, defaultdict(float))
            stack = [record]
            while stack:
                node = stack.pop()
                table[node.name if node is not record else "(unattributed)"] += (
                    _self_time(node, children.get(id(node), ()))
                )
                stack.extend(child for child in children.get(id(node), ())
                             if not child.phase)
        return {name: dict(table) for name, table in out.items()}

    def coverage(self) -> float:
        """Share of phase wall time inside at least one layer span."""
        children = _children(self.spans)
        wall = covered = 0.0
        for record in self.spans:
            if record.phase and record.end is not None:
                wall += record.end - record.start
                covered += _covered(record, [
                    child for child in children.get(id(record), ())
                    if not child.phase
                ])
        return covered / wall if wall > 0 else 0.0


class _SpanContext:
    def __init__(self, tracer, name, phase):
        self.tracer, self.name, self.phase = tracer, name, phase

    def __enter__(self):
        self.record = self.tracer.begin(self.name, phase=self.phase)
        return self.record

    def __exit__(self, *exc_info):
        self.tracer.end(self.record)


def _children(spans) -> dict:
    children: dict = defaultdict(list)
    for record in spans:
        if record.parent is not None and record.end is not None:
            children[id(record.parent)].append(record)
    return children


def _covered(record: Span, kids) -> float:
    """Length of the union of ``kids``' intervals clipped to ``record``."""
    intervals = sorted(
        (max(k.start, record.start), min(k.end, record.end)) for k in kids
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _self_time(record: Span, kids) -> float:
    return (record.end - record.start) - _covered(record, kids)


def self_times(spans) -> dict:
    """Sum each span name's self time: duration minus children's coverage."""
    children = _children(spans)
    totals: dict = defaultdict(float)
    for record in spans:
        if record.end is None:
            continue
        totals[record.name] += _self_time(record, children.get(id(record), ()))
    return dict(totals)
