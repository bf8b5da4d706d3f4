"""CPU budget: how many threads one call in this process may use.

In a parent process the budget is the number of CPUs in this process's
affinity mask. Process-pool workers (:mod:`repro.experiments.parallel`)
set it to 1 when they start, so K workers never run K × CPUs threads.
"""

from __future__ import annotations

import os

__all__ = ["cpu_budget", "use_one_cpu"]

# ``None`` means "the affinity count"; pool workers pin it to 1.
_budget: int | None = None


def cpu_budget() -> int:
    """CPUs this process may use: the affinity count, or 1 in pool workers."""
    if _budget is not None:
        return _budget
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def use_one_cpu() -> None:
    """Pin this process's budget to one CPU (process-pool workers call this)."""
    global _budget
    _budget = 1
