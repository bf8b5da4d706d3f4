"""Shared pieces of the benchmark: run context, result record, statistics."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Context:
    """What one benchmark run was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    workdir: Path

    @property
    def data_seed(self) -> int:
        """The seed handed to the program's generators (non-negative)."""
        return self.seed & 0x7FFFFFFF


@dataclass
class Outcome:
    """One workload's result: metrics by name, operation counts, notes."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def reference_kernel() -> float:
    """Wall seconds of one fixed CPU kernel: an interpreter loop, a small
    symmetric eigensolve and a sort, in roughly equal parts."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.random((160, 160))
    matrix = matrix + matrix.T
    values = rng.random(200_000)
    start = time.perf_counter()
    total = 0
    for step in range(150_000):
        total += step * step
    for _ in range(3):
        np.linalg.eigh(matrix)
    np.sort(values, kind="stable")
    return time.perf_counter() - start


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    data = sorted(values)
    if not data:
        return float("nan")
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    values = list(values)
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def all_finite(value) -> bool:
    """True when every number reachable from ``value`` is finite.

    Walks dicts, sequences, NumPy arrays and dataclass-like objects (their
    ``__dict__``); strings and booleans are ignored.
    """
    import numpy as np

    stack = [value]
    seen = set()
    while stack:
        item = stack.pop()
        if isinstance(item, (str, bytes, bool)) or item is None:
            continue
        if isinstance(item, (int, float, np.number)):
            if not math.isfinite(float(item)):
                return False
            continue
        if isinstance(item, np.ndarray):
            if item.dtype.kind in "fc" and not np.all(np.isfinite(item)):
                return False
            if item.dtype == object:
                stack.extend(item.ravel().tolist())
            continue
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return True
