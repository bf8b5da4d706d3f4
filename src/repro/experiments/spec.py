"""Declarative run specs: a whole scenario matrix as one document.

A :class:`RunSpec` expresses the paper's experiment grids — datasets ×
methods × γ values × seeds — as data (a dataclass, loadable from YAML or
JSON), and :func:`run_spec` compiles it into the flat cell list the cell
executor (:func:`~repro.experiments.harness.run_cells`) fans out. Every
cell is keyed by its content-addressed task digest in a
:class:`~repro.store.RunLedger`, and completed digests are skipped
*before* dispatch, which buys three properties for free:

* **resume** — re-running the spec after an interruption recomputes only
  the cells the crash lost;
* **incremental extension** — widening the γ grid, adding a seed or a
  method re-pays only the new cells;
* **deduplication** — two specs sharing cells (same dataset content, same
  parameters) share ledger entries.

Aggregates (mean ± std across seeds) are rebuilt from ledger queries, so
an interrupted-and-resumed run is bitwise identical to an uninterrupted
one, serial or parallel.

Example spec (YAML)::

    name: compas-gamma-sweep
    datasets:
      - {name: compas, scale: 0.25}
    methods: [original, pfr]
    gammas: [0.0, 0.5, 1.0]
    seeds: [0, 1, 2]
    harness: {n_components: 3}
    method_params:
      pfr: {C: 1.0}

Run it with ``repro run spec.yaml --store DIR`` or
:func:`run_spec`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import ValidationError
from ..obs.metrics import get_registry
from ..obs.trace import emit_metrics, span, trace_enabled
from ..store import RunLedger, coerce_ledger, task_digest
from .builders import WorkloadFactory
from .harness import ExperimentHarness, cell_task, run_cells
from .parallel import spawn_seeds
from .repetition import _collect

__all__ = [
    "RunSpec",
    "RunReport",
    "load_run_spec",
    "run_spec",
    "compile_cells",
    "parse_shard",
    "shard_of",
]

#: Harness constructor knobs a spec may set (the split/graph/representation
#: configuration). ``seed`` is excluded — it comes from the spec's seed
#: axis — and ``store``/``workers`` are runtime arguments, not scenario
#: parameters.
_HARNESS_KEYS = frozenset(
    {
        "test_size",
        "n_quantiles",
        "rating_resolution",
        "n_neighbors",
        "n_components",
        "landmarks",
        "landmark_strategy",
        "method_overrides",
    }
)


@dataclass(frozen=True)
class RunSpec:
    """One declarative scenario matrix: datasets × methods × γ × seeds.

    Attributes
    ----------
    name:
        Human-readable identifier, recorded in the report.
    datasets:
        Tuple of ``(workload_name, scale)`` pairs.
    methods:
        Harness method names (``pfr``, ``original+``, ...).
    gammas:
        γ grid applied to every method (methods that ignore γ simply key
        their cells on it).
    seeds:
        Explicit seed tuple; each seeds the dataset draw *and* the
        harness split, exactly like :func:`~repro.experiments.repeat_methods`.
    harness:
        Extra :class:`~repro.experiments.ExperimentHarness` constructor
        arguments applied to every cell (validated against the known
        knobs).
    method_params:
        Per-method keyword arguments (may include the classifier ``C``),
        e.g. ``{"pfr": {"C": 10.0}}``.
    """

    name: str
    datasets: tuple
    methods: tuple
    gammas: tuple
    seeds: tuple
    harness: dict = field(default_factory=dict)
    method_params: dict = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        """Total cells in the matrix."""
        return (
            len(self.datasets) * len(self.methods)
            * len(self.gammas) * len(self.seeds)
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Validate and normalize a plain-dict (YAML/JSON) spec."""
        if not isinstance(data, dict):
            raise ValidationError(
                f"a run spec must be a mapping; got {type(data).__name__}"
            )
        known = {
            "name", "datasets", "methods", "gammas", "seeds", "harness",
            "method_params",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValidationError(
                f"unknown run-spec fields {unknown}; known: {sorted(known)}"
            )

        name = str(data.get("name", "run"))

        raw_datasets = data.get("datasets")
        if not raw_datasets:
            raise ValidationError("run spec needs a non-empty 'datasets' list")
        datasets = []
        for item in raw_datasets:
            if isinstance(item, str):
                item = {"name": item}
            if not isinstance(item, dict) or "name" not in item:
                raise ValidationError(
                    "each dataset must be a workload name or a "
                    "{name, scale} mapping"
                )
            extra = sorted(set(item) - {"name", "scale"})
            if extra:
                raise ValidationError(
                    f"unknown dataset fields {extra}; known: ['name', 'scale']"
                )
            scale = float(item.get("scale", 1.0))
            # WorkloadFactory validates the name (and pins the scale range
            # check to one place).
            WorkloadFactory(str(item["name"]), scale=scale)
            datasets.append((str(item["name"]), scale))
        names = [name for name, _scale in datasets]
        if len(set(names)) != len(names):
            # The report keys results by dataset *name*; two entries for
            # one workload (e.g. two scales) would silently collapse into
            # a single row. Express that as two specs instead.
            raise ValidationError(f"datasets contains duplicates: {names}")

        methods = tuple(str(m) for m in data.get("methods") or ())
        if not methods:
            raise ValidationError("run spec needs a non-empty 'methods' list")
        if len(set(methods)) != len(methods):
            raise ValidationError(f"methods contains duplicates: {list(methods)}")

        gammas = tuple(float(g) for g in data.get("gammas", (0.5,)))
        if not gammas:
            raise ValidationError("run spec needs at least one gamma")
        if len(set(gammas)) != len(gammas):
            raise ValidationError(f"gammas contains duplicates: {list(gammas)}")

        raw_seeds = data.get("seeds", (0,))
        if isinstance(raw_seeds, int):
            if raw_seeds < 1:
                raise ValidationError(
                    f"seeds count must be >= 1; got {raw_seeds}"
                )
            seeds = spawn_seeds(0, raw_seeds)
        elif isinstance(raw_seeds, dict):
            extra = sorted(set(raw_seeds) - {"count", "root"})
            if extra:
                raise ValidationError(
                    f"unknown seeds fields {extra}; known: ['count', 'root']"
                )
            count = int(raw_seeds.get("count", 0))
            if count < 1:
                raise ValidationError(f"seeds count must be >= 1; got {count}")
            seeds = spawn_seeds(int(raw_seeds.get("root", 0)), count)
        else:
            seeds = tuple(int(s) for s in raw_seeds)
        if not seeds:
            raise ValidationError("run spec needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValidationError(f"seeds contains duplicates: {list(seeds)}")

        harness = dict(data.get("harness") or {})
        bad = sorted(set(harness) - _HARNESS_KEYS)
        if bad:
            raise ValidationError(
                f"unknown harness fields {bad}; known: {sorted(_HARNESS_KEYS)}"
            )

        method_params = {
            str(method): dict(params)
            for method, params in (data.get("method_params") or {}).items()
        }
        for method, params in method_params.items():
            if method not in methods:
                raise ValidationError(
                    f"method_params names {method!r} which is not in methods "
                    f"{list(methods)}"
                )
            # γ is a spec axis, not a per-method parameter; letting it
            # through would explode deep in a worker with a confusing
            # "multiple values for keyword argument" TypeError.
            reserved = sorted({"gamma", "workers", "store"} & set(params))
            if reserved:
                raise ValidationError(
                    f"method_params[{method!r}] may not set {reserved}; "
                    "gamma is the spec's 'gammas' axis and workers/store "
                    "are runtime arguments"
                )

        return cls(
            name=name,
            datasets=tuple(datasets),
            methods=methods,
            gammas=gammas,
            seeds=seeds,
            harness=harness,
            method_params=method_params,
        )

    def to_dict(self) -> dict:
        """Plain-dict view (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "datasets": [
                {"name": name, "scale": scale} for name, scale in self.datasets
            ],
            "methods": list(self.methods),
            "gammas": list(self.gammas),
            "seeds": list(self.seeds),
            "harness": dict(self.harness),
            "method_params": {
                method: dict(params)
                for method, params in self.method_params.items()
            },
        }


def load_run_spec(path) -> RunSpec:
    """Load a :class:`RunSpec` from a YAML or JSON file.

    ``.json`` files parse with the stdlib; anything else goes through
    PyYAML when available (YAML is a superset of JSON, so a JSON document
    under a ``.yaml`` name still loads). Without PyYAML, non-JSON files
    fall back to a JSON parse and fail with a clear message.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"run spec not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
        return RunSpec.from_dict(data)
    try:
        import yaml
    except ImportError:  # pragma: no cover - PyYAML is in the base image
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"cannot parse {path}: PyYAML is not installed and the file "
                f"is not valid JSON ({exc})"
            ) from exc
        return RunSpec.from_dict(data)
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"invalid YAML in {path}: {exc}") from exc
    return RunSpec.from_dict(data)


@dataclass(frozen=True)
class RunReport:
    """What one :func:`run_spec` invocation did, rebuilt from the ledger.

    Attributes
    ----------
    spec:
        The spec that ran.
    cells:
        One dict per cell — ``dataset``, ``scale``, ``seed``, ``method``,
        ``gamma``, ``digest``, and ``cached`` (True when the cell was
        already in the ledger before this run) — in deterministic matrix
        order. A sharded run lists only its shard's cells and adds each
        cell's ``shard`` index.
    results:
        ``{(dataset, method, gamma, seed): MethodResult}`` decoded from
        the ledger.
    aggregates:
        ``{(dataset, method, gamma): AggregateResult}`` across seeds
        (present when the spec has ≥ 2 seeds).
    telemetry:
        Observability sidecar (:mod:`repro.obs`): wall-clock, cell
        counts, and the parent process's ledger hit/miss deltas for this
        run. Purely informational — never part of any digest, and absent
        keys must not be relied on.
    """

    spec: RunSpec
    cells: list
    results: dict = field(repr=False)
    aggregates: dict = field(repr=False)
    telemetry: dict = field(default_factory=dict, repr=False)

    @property
    def n_total(self) -> int:
        return len(self.cells)

    @property
    def n_cached(self) -> int:
        return sum(1 for cell in self.cells if cell["cached"])

    @property
    def n_computed(self) -> int:
        return self.n_total - self.n_cached

    @property
    def hit_rate(self) -> float:
        """Fraction of cells served from the ledger (0.0 on an empty spec)."""
        return self.n_cached / self.n_total if self.cells else 0.0

    def to_json(self) -> dict:
        """Machine-readable summary (what ``--json`` prints)."""
        aggregates = {}
        for (dataset, method, gamma), agg in self.aggregates.items():
            key = f"{dataset}/{method}/gamma={gamma:g}"
            aggregates[key] = {
                "n_runs": agg.n_runs,
                "mean": agg.mean,
                "std": agg.std,
            }
        return {
            "name": self.spec.name,
            "total": self.n_total,
            "cached": self.n_cached,
            "computed": self.n_computed,
            "hit_rate": self.hit_rate,
            "cells": self.cells,
            "aggregates": aggregates,
            "telemetry": self.telemetry,
        }


# -- deterministic sharding ------------------------------------------------
#
# A sharded run partitions the compiled cell list by a stable hash of each
# cell's *task digest* — never by list position — so the assignment is a
# pure function of the cell's identity: reordering the spec, widening the
# γ grid, or adding seeds/methods/datasets can add cells to a shard but
# can never move an existing cell to a different one. K machines each run
# `run_spec(spec, shard=(i, K))` against their own store; `repro store
# merge` unions the stores; a final un-sharded `run_spec` over the merged
# store finds every cell cached and rebuilds the exact un-sharded report.

def shard_of(digest: str, n_shards: int) -> int:
    """Shard index of a task digest: stable, order-free, uniform.

    Uses the leading 64 bits of the (already cryptographic) digest modulo
    ``n_shards``, so for any K the shards are a disjoint cover of the
    cell set and an existing cell's assignment never changes when the
    grid around it grows.
    """
    if not isinstance(n_shards, int) or n_shards < 1:
        raise ValidationError(
            f"n_shards must be a positive integer; got {n_shards!r}"
        )
    try:
        return int(str(digest)[:16], 16) % n_shards
    except ValueError as exc:
        raise ValidationError(
            f"not a hex task digest: {digest!r}"
        ) from exc


def parse_shard(shard) -> tuple[int, int] | None:
    """Normalize a shard selector to ``(index, count)``.

    Accepts ``None`` (no sharding), an ``(i, K)`` pair, or the CLI's
    ``"i/K"`` string; validates ``0 <= i < K``.
    """
    if shard is None:
        return None
    if isinstance(shard, str):
        index_text, sep, count_text = shard.partition("/")
        if not sep:
            raise ValidationError(
                f"shard must look like 'i/K' (e.g. 0/4); got {shard!r}"
            )
        try:
            index, count = int(index_text), int(count_text)
        except ValueError as exc:
            raise ValidationError(
                f"shard must look like 'i/K' with integer i and K; "
                f"got {shard!r}"
            ) from exc
    else:
        try:
            index, count = shard
            index, count = int(index), int(count)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"shard must be None, 'i/K', or an (i, K) pair; got {shard!r}"
            ) from exc
    if count < 1:
        raise ValidationError(f"shard count must be >= 1; got {count}")
    if not 0 <= index < count:
        raise ValidationError(
            f"shard index must be in [0, {count}); got {index}"
        )
    return index, count


def compile_cells(spec: RunSpec, *, ledger: RunLedger | None = None) -> list:
    """The spec's flat cell list, in deterministic matrix order.

    Each cell is a dict of ``dataset``/``scale``/``seed``/``method``/
    ``gamma``/``digest``/``cached`` (``cached`` is False when no ledger is
    given). This is the single compilation step shared by :func:`run_spec`
    and the sharding layer — the digests here are what :func:`shard_of`
    partitions, so tests can assert cover/disjointness/stability without
    running anything.

    Materializes each dataset × seed slice once, only to fingerprint it;
    the arrays are dropped immediately, so memory peaks at one dataset
    regardless of matrix size.
    """
    fingerprints = {}
    for dataset_name, scale in spec.datasets:
        factory = WorkloadFactory(dataset_name, scale=scale)
        for seed in spec.seeds:
            harness = ExperimentHarness(
                factory(seed), seed=seed, **spec.harness
            )
            fingerprints[(dataset_name, scale, seed)] = (
                harness.task_fingerprint()
            )
            del harness

    cells = []
    for dataset_name, scale in spec.datasets:
        for method in spec.methods:
            params = dict(spec.method_params.get(method, {}))
            C = float(params.pop("C", 1.0))
            for gamma in spec.gammas:
                for seed in spec.seeds:
                    key = (dataset_name, scale, seed)
                    digest = task_digest(
                        cell_task(fingerprints[key], method, gamma, C, params)
                    )
                    cells.append(
                        {
                            "dataset": dataset_name,
                            "scale": scale,
                            "seed": seed,
                            "method": method,
                            "gamma": gamma,
                            "digest": digest,
                            "cached": (
                                ledger.contains(digest)
                                if ledger is not None else False
                            ),
                        }
                    )
    return cells


def run_spec(spec: RunSpec, *, store, workers=None, shard=None) -> RunReport:
    """Execute a :class:`RunSpec` (or one shard of it) through a run ledger.

    Compiles the matrix to cells, skips every digest already in the
    ledger, fans the missing cells out through the cell executor (workers
    rebuild each dataset × seed slice's harness lazily from its workload
    factory and reuse it for every cell of that slice, so the staged-fit
    γ amortization survives the fan-out without shipping datasets), and
    rebuilds results and aggregates from ledger queries. Serial and
    parallel runs — and interrupted-then-resumed runs — are bitwise
    identical.

    Parameters
    ----------
    spec:
        The scenario matrix (see :class:`RunSpec` / :func:`load_run_spec`).
    store:
        Ledger directory or :class:`~repro.store.RunLedger` (required —
        the ledger is what makes the spec resumable).
    workers:
        Process fan-out for the missing cells (``None`` = serial).
    shard:
        ``None`` (the whole matrix), or ``"i/K"`` / ``(i, K)`` to run only
        the cells :func:`shard_of` assigns to shard *i* of *K*. The
        partition is keyed on each cell's task digest, so it is disjoint,
        covering, independent of cell order, and stable under grid
        widening. K shards each with N workers compose: every shard runs
        its own executor against its own store, and ``repro store merge``
        unions the stores afterwards. A sharded report covers only this
        shard's cells; aggregates are built only for (dataset, method, γ)
        groups whose every seed landed in this shard, so no partial
        cross-seed statistics ever leave a shard — re-run the merged
        store un-sharded to rebuild the full (bitwise-identical) report.
    """
    ledger = coerce_ledger(store)
    if not isinstance(ledger, RunLedger):
        raise ValidationError(
            "run_spec requires a store (a ledger directory path or a "
            f"RunLedger); got {store!r}"
        )
    shard = parse_shard(shard)

    start = time.perf_counter()
    stats_before = ledger.stats()
    span_attrs = {"name": spec.name}
    if shard is not None:
        span_attrs["shard"] = f"{shard[0]}/{shard[1]}"
    run_span = span("spec.run", **span_attrs)
    run_span.__enter__()
    try:
        report = _run_spec_inner(
            spec, ledger, workers, shard, start, stats_before, run_span
        )
    except BaseException:
        run_span.__exit__(ValidationError, None, None)
        raise
    run_span.__exit__(None, None, None)
    # A self-contained trace: snapshot the parent's counters so `repro
    # obs summary` can report the ledger hit rate without the registry.
    emit_metrics()
    return report


def _run_spec_inner(
    spec: RunSpec, ledger: RunLedger, workers, shard, start, stats_before,
    run_span,
) -> RunReport:
    cells = compile_cells(spec, ledger=ledger)
    shard_label = None
    if shard is not None:
        index, count = shard
        shard_label = f"{index}/{count}"
        for cell in cells:
            cell["shard"] = shard_of(cell["digest"], count)
        cells = [cell for cell in cells if cell["shard"] == index]
    method_call = {}
    for method in spec.methods:
        params = dict(spec.method_params.get(method, {}))
        method_call[method] = (float(params.pop("C", 1.0)), params)
    n_pending = sum(1 for cell in cells if not cell["cached"])

    run_span.set(
        total=len(cells),
        cached=len(cells) - n_pending,
        computed=n_pending,
    )
    if shard_label is not None:
        # Shard-labeled metrics: a fleet scraping one registry can tell
        # the shards' progress apart.
        registry = get_registry()
        registry.inc("spec.shard.cells", len(cells),
                     name=spec.name, shard=shard_label)
        registry.inc("spec.shard.computed", n_pending,
                     name=spec.name, shard=shard_label)
    # One group per cell; workers rebuild each dataset × seed slice's
    # harness lazily from its workload factory, once per process.
    groups = [
        (
            (cell["seed"], WorkloadFactory(cell["dataset"], scale=cell["scale"])),
            [(cell["method"], cell["gamma"], *method_call[cell["method"]],
              cell["digest"])],
        )
        for cell in cells
    ]
    state = {
        "harnesses": {},
        "harness_kwargs": {**spec.harness, "store": ledger},
        "cell_spans": True,
        "shard": shard_label,
    }
    # compile_cells already probed the ledger; reuse its verdicts rather
    # than probing again (the telemetry counts every lookup).
    stored = {cell["digest"] for cell in cells if cell["cached"]}
    decoded = run_cells(
        groups, state=state, workers=workers, ledger=ledger, stored=stored
    )
    results = {
        (cell["dataset"], cell["method"], cell["gamma"], cell["seed"]): result
        for cell, (result,) in zip(cells, decoded)
    }

    aggregates = {}
    if len(spec.seeds) > 1:
        for dataset_name, _scale in spec.datasets:
            for method in spec.methods:
                for gamma in spec.gammas:
                    group = [
                        results[(dataset_name, method, gamma, seed)]
                        for seed in spec.seeds
                        if (dataset_name, method, gamma, seed) in results
                    ]
                    # A shard holding only some of a group's seeds must
                    # not publish a partial mean/std — those cells
                    # aggregate after the merge, where every seed is
                    # present.
                    if len(group) == len(spec.seeds):
                        aggregates[(dataset_name, method, gamma)] = _collect(
                            group
                        )

    stats_after = ledger.stats()
    delta = {
        key: stats_after[key] - stats_before[key]
        for key in ("hits", "misses", "lookups", "gets", "puts")
    }
    delta["hit_rate"] = (
        delta["hits"] / delta["lookups"] if delta["lookups"] else 0.0
    )
    telemetry = {
        "wall_s": time.perf_counter() - start,
        "cells": {
            "total": len(cells),
            "cached": sum(1 for cell in cells if cell["cached"]),
            "computed": n_pending,
        },
        "ledger": delta,
        "trace_enabled": trace_enabled(),
    }
    if shard_label is not None:
        telemetry["shard"] = shard_label
    return RunReport(
        spec=spec, cells=cells, results=results, aggregates=aggregates,
        telemetry=telemetry,
    )
