"""Cross-seed repetition: error bars for any experiment.

Single-seed results can flatter or slander a method; this module re-runs a
method (or a whole method set) across seeds — fresh data draw *and* fresh
split per seed — and aggregates every scalar metric into mean ± std, the
form reviewers expect.

Seeds are the natural parallel axis: every seed's pipeline (data draw,
split, graphs, fits, evaluation) is independent of every other's. All
``repeat_*`` functions accept ``workers`` and fan seeds out across
processes through :func:`~repro.experiments.harness.run_cells`, one cell
group per seed; each worker runs whole seeds, so the per-seed staged-fit
reuse (one :class:`~repro.core.SpectralFitPlan` per γ-sweep) is
preserved, and the aggregates are bitwise identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ValidationError
from ..store import coerce_ledger
from .harness import ExperimentHarness, _cell, run_cells
from .parallel import spawn_seeds

__all__ = [
    "AggregateResult",
    "repeat_method",
    "repeat_methods",
    "repeat_gamma_sweep",
]

_METRICS = (
    "auc",
    "consistency_wx",
    "consistency_wf",
    "parity_gap",
    "fpr_gap",
    "fnr_gap",
)


@dataclass(frozen=True)
class AggregateResult:
    """Mean ± std of every scalar metric across seeds."""

    method: str
    dataset: str
    n_runs: int
    mean: dict = field(repr=False)
    std: dict = field(repr=False)

    def format(self, metric: str) -> str:
        """``"0.712 ± 0.013"`` for one metric."""
        if metric not in self.mean:
            raise ValidationError(
                f"unknown metric {metric!r}; available: {sorted(self.mean)}"
            )
        return f"{self.mean[metric]:.3f} ± {self.std[metric]:.3f}"


def _collect(results) -> AggregateResult:
    results = list(results)
    if not results:
        raise ValidationError("cannot aggregate an empty result list")
    rows = [r.summary() for r in results]
    mean = {m: float(np.mean([row[m] for row in rows])) for m in _METRICS}
    # Sample std (ddof=1): the error bars describe seed-to-seed
    # variability estimated from the seeds actually run, the convention of
    # the mean ± std tables in the paper's lineage (population std
    # understates the bars by ~22% at the default 3 seeds). A single run
    # has no spread to estimate — report 0.0, not NaN.
    if len(rows) > 1:
        std = {
            m: float(np.std([row[m] for row in rows], ddof=1)) for m in _METRICS
        }
    else:
        std = {m: 0.0 for m in _METRICS}
    return AggregateResult(
        method=results[0].method,
        dataset=results[0].dataset,
        n_runs=len(results),
        mean=mean,
        std=std,
    )


def _normalize_seeds(seeds) -> tuple[int, ...]:
    """Validate and materialize the ``seeds`` argument.

    Accepts an explicit sequence of seeds, or an int ``n`` which derives
    ``n`` independent seeds deterministically via
    :func:`~repro.experiments.parallel.spawn_seeds` (root 0). Rejects
    empty sequences up front — downstream aggregation would otherwise die
    with an inscrutable ``IndexError`` — and duplicates, which would pass
    one draw off as several and report a spread of zero as error bars.
    """
    if isinstance(seeds, (int, np.integer)):
        count = int(seeds)
        if count < 2:
            raise ValidationError(
                f"repetition needs at least two seeds; got seeds={count}"
            )
        return spawn_seeds(0, count)
    seeds = tuple(int(seed) for seed in seeds)
    if len(seeds) < 2:
        raise ValidationError(
            "repetition needs at least two seeds; got "
            + (f"{len(seeds)}" if seeds else "an empty seeds sequence")
        )
    if len(set(seeds)) != len(seeds):
        raise ValidationError(f"seeds contains duplicates: {list(seeds)}")
    return seeds


def _repeat(dataset_factory, seeds, cells, harness_kwargs, store, workers):
    """Run the same ``(method, gamma, C, params)`` cells on every seed's
    slice; returns one result list per seed, in seed order.

    The factory is the one argument users routinely pass as a lambda,
    which a process backend could not pickle, so it is called here, in
    seed order: each group ships plain data (seed, Dataset), and its
    harness lives only as long as the group. An explicit ``store`` joins
    the harness kwargs (a ledger is just a root path), so every worker
    writes through to the same on-disk ledger and a killed repetition
    resumes at cell granularity.
    """
    kwargs = dict(harness_kwargs or {})
    if store is not None:
        kwargs["store"] = store
    ledger = coerce_ledger(kwargs.get("store"))
    groups = []
    for seed in seeds:
        dataset = dataset_factory(seed)
        fingerprint = None
        if ledger is not None:
            fingerprint = ExperimentHarness(
                dataset, seed=seed, **kwargs
            ).task_fingerprint()
        groups.append(
            ((seed, dataset), [_cell(fingerprint, *cell) for cell in cells])
        )
    return run_cells(
        groups, state={"harness_kwargs": kwargs}, workers=workers,
        ledger=ledger,
    )


def repeat_method(
    dataset_factory,
    method: str,
    *,
    seeds=(0, 1, 2),
    gamma: float = 0.5,
    harness_kwargs: dict | None = None,
    workers=None,
    store=None,
    **method_params,
) -> AggregateResult:
    """Run one method across seeds and aggregate.

    Parameters
    ----------
    dataset_factory:
        ``f(seed) -> Dataset`` — a fresh data draw per seed (e.g.
        ``lambda s: simulate_crime(498, 200, seed=s)``). Called in the
        parent process, so lambdas are fine even with process workers.
    method:
        Harness method name.
    seeds:
        Seeds; each seeds both the dataset and the harness split. An int
        ``n`` derives ``n`` seeds via ``np.random.SeedSequence.spawn``.
    gamma, **method_params:
        Forwarded to :meth:`ExperimentHarness.run_method`.
    harness_kwargs:
        Extra :class:`ExperimentHarness` constructor arguments.
    workers:
        Fan seeds out across processes (``None`` = serial); results are
        bitwise identical either way.
    store:
        Run-ledger directory or :class:`~repro.store.RunLedger`; every
        per-seed cell is read-through/written-through the ledger, so a
        killed repetition resumes at the missing seeds' cells.
    """
    seeds = _normalize_seeds(seeds)
    C = method_params.pop("C", 1.0)
    per_seed = _repeat(
        dataset_factory, seeds, [(method, gamma, C, method_params)],
        harness_kwargs, store, workers,
    )
    return _collect(result for (result,) in per_seed)


def repeat_gamma_sweep(
    dataset_factory,
    gammas,
    *,
    method: str = "pfr",
    seeds=(0, 1, 2),
    harness_kwargs: dict | None = None,
    workers=None,
    store=None,
    **method_params,
) -> dict:
    """Error-barred γ-sweep: Figures 4/7/10 with mean ± std per γ.

    One harness per seed runs the whole sweep, so the staged fit pipeline
    (:class:`~repro.core.SpectralFitPlan`) builds each seed's graphs,
    Laplacians and projected objective matrices once and reuses them across
    every γ — the per-point cost is a mix + eigensolve, not a refit. With
    ``workers`` set, seeds fan out across processes and each worker keeps
    that per-seed reuse intact.

    Returns ``{gamma: AggregateResult}`` in the input γ order.
    """
    seeds = _normalize_seeds(seeds)
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValidationError("repeat_gamma_sweep needs at least one gamma")
    if len(set(gammas)) != len(gammas):
        # per-γ aggregation keys on the value; duplicates would silently
        # merge and double-count n_runs.
        raise ValidationError(f"gammas contains duplicates: {gammas}")
    C = method_params.pop("C", 1.0)
    sweeps = _repeat(
        dataset_factory, seeds,
        [(method, gamma, C, method_params) for gamma in gammas],
        harness_kwargs, store, workers,
    )
    return {
        gamma: _collect([sweep[i] for sweep in sweeps])
        for i, gamma in enumerate(gammas)
    }


def repeat_methods(
    dataset_factory,
    methods,
    *,
    seeds=(0, 1, 2),
    gamma: float = 0.5,
    harness_kwargs: dict | None = None,
    workers=None,
    store=None,
) -> dict:
    """Aggregate several methods on the same per-seed datasets and splits."""
    seeds = _normalize_seeds(seeds)
    methods = tuple(methods)
    per_seed = _repeat(
        dataset_factory, seeds, [(method, gamma, 1.0, {}) for method in methods],
        harness_kwargs, store, workers,
    )
    return {
        method: _collect([row[i] for row in per_seed])
        for i, method in enumerate(methods)
    }
