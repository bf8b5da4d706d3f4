"""`TransformService` — the façade tying registry, batching and cache together.

This is the object an online decision-making system would hold: it resolves
``name@version`` specs against a :class:`~repro.serving.registry.ModelRegistry`,
keeps the deserialized estimators warm in memory, routes bulk requests
through the chunked :class:`~repro.serving.batching.BatchTransformer`,
serves repeated rows straight from a per-model
:class:`~repro.serving.cache.LRUCache`, and counts everything so operators
can see hit rates and throughput.

The service is thread-safe: model loading is double-checked under a lock,
caches lock internally, and the counters are guarded separately, so many
request threads can call :meth:`transform` concurrently — the intended
deployment shape behind an HTTP or RPC front end.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import ValidationError
from ..io import load_model
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span, trace_enabled
from .batching import BatchTransformer
from .cache import LRUCache, matrix_digests, row_digest
from .registry import ModelRegistry, ModelRecord

__all__ = ["TransformService"]


@dataclass
class _ServedModel:
    """A loaded model plus its serving machinery."""

    record: ModelRecord
    model: object
    batcher: BatchTransformer
    cache: LRUCache
    # Drift accounting (None unless the service opted in AND the artifact
    # carries landmark coordinates): a per-row scorer rebuilt from the
    # loaded model and the windowed monitor its samples feed.
    scorer: object = None
    monitor: object = None


class TransformService:
    """Serve transforms for every model in a registry.

    Parameters
    ----------
    registry:
        A :class:`ModelRegistry` instance, or a path handed to one.
    cache_size:
        Per-model LRU capacity in rows; ``0`` disables result caching.
    chunk_size:
        Bulk requests are fed to the model at most this many rows at a
        time to bound peak memory.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` request accounting lands
        in. Defaults to a private registry per service, so two services
        in one process never mix their latency distributions; pass
        :func:`repro.obs.get_registry` to publish into the process-global
        one instead.
    drift:
        Opt-in per-request drift accounting. When True, every served
        batch has up to ``drift_sample`` rows re-scored through
        :func:`repro.lifecycle.scorer_for` (parametric map vs.
        graph-smoothing extension over the artifact's landmarks) into a
        per-model :class:`repro.lifecycle.DriftMonitor`; read the
        aggregate through :meth:`drift_status` or ``GET /drift``. Models
        whose artifacts carry no landmark coordinates serve normally but
        report no drift.
    drift_sample:
        Max rows scored per request (stride-sampled — bounds the hot-path
        overhead regardless of batch size).
    drift_window, drift_floor:
        Handed to each model's :class:`DriftMonitor`: rows scoring below
        ``drift_floor`` count as drifted, over a window of
        ``drift_window`` recent scores.
    """

    def __init__(
        self,
        registry,
        *,
        cache_size: int = 100_000,
        chunk_size: int = 8192,
        metrics: MetricsRegistry | None = None,
        drift: bool = False,
        drift_sample: int = 32,
        drift_window: int = 4096,
        drift_floor: float = 0.5,
    ):
        self.registry = (
            registry if isinstance(registry, ModelRegistry) else ModelRegistry(registry)
        )
        self.cache_size = cache_size
        self.chunk_size = chunk_size
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if drift and drift_sample < 1:
            raise ValidationError(
                f"drift_sample must be >= 1 when drift is enabled; got "
                f"{drift_sample}"
            )
        self.drift = bool(drift)
        self.drift_sample = int(drift_sample)
        self.drift_window = int(drift_window)
        self.drift_floor = float(drift_floor)
        self._models: dict[tuple[str, int], _ServedModel] = {}
        # Pinned name@version specs are immutable, so their resolution is
        # memoized; bare names / @latest re-resolve through the registry
        # every call so promotions take effect immediately. The memo dict
        # has its own lock (not _load_lock): resolution must never wait on
        # a slow model deserialization, and every read-check-write on the
        # dict happens under it so concurrent first resolutions cannot
        # interleave a torn mutation.
        self._resolved: dict[str, tuple[str, int]] = {}
        self._resolve_lock = threading.Lock()
        self._load_lock = threading.Lock()

    # ------------------------------------------------------------ serving
    def transform(self, spec: str, X) -> np.ndarray:
        """Transform a batch of rows through the model resolved from ``spec``.

        ``spec`` is ``name``, ``name@latest`` or ``name@<version>``. ``X``
        is an ``(n, m)`` matrix whose width must match the registered input
        schema. Cached rows skip the model entirely.
        """
        return self._transform_batch(self._served(spec), X)

    def transform_versioned(self, spec: str, X) -> tuple[str, np.ndarray]:
        """Like :meth:`transform`, returning ``(resolved_spec, Z)``.

        ``resolved_spec`` is the pinned ``name@version`` that actually
        produced ``Z``. The spec is resolved exactly once, so under a
        concurrent ``promote`` the label and the rows can never disagree —
        the guarantee an HTTP front end surfaces to its clients.
        """
        served = self._served(spec)
        return served.record.spec, self._transform_batch(served, X)

    def _transform_batch(self, served: _ServedModel, X) -> np.ndarray:
        X = self._checked_matrix(served.record, X)
        start = time.perf_counter()
        if trace_enabled():
            with span("serving.transform", model=served.record.spec,
                      rows=int(X.shape[0])):
                result = self._transform_cached(served, X)
        else:
            result = self._transform_cached(served, X)
        self._account(served, X.shape[0], time.perf_counter() - start)
        self._observe_drift(served, X, result)
        return result

    def transform_one(self, spec: str, row) -> np.ndarray:
        """Transform a single 1-D feature row; returns its representation.

        Cache hits take a dedicated fast path (one digest, one lookup) —
        this is the per-request unit of the heavy-tailed online workload
        the cache exists for, so its overhead is kept minimal.

        The returned row is **read-only** (hit or miss alike — mutability
        must not depend on cache state); mutating it raises ``ValueError``
        instead of corrupting the cached entry. Copy it if you need a
        scratch buffer.
        """
        return self._transform_one(self._served(spec), row)

    def transform_one_versioned(self, spec: str, row) -> tuple[str, np.ndarray]:
        """Like :meth:`transform_one`, returning ``(resolved_spec, z)``.

        One resolution covers both the label and the computation, exactly
        like :meth:`transform_versioned`.
        """
        served = self._served(spec)
        return served.record.spec, self._transform_one(served, row)

    def _transform_one(self, served: _ServedModel, row) -> np.ndarray:
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ValidationError(
                f"transform_one expects a 1-D row; got ndim={row.ndim}"
            )
        expected = served.record.n_features_in
        if expected is not None and row.shape[0] != expected:
            raise ValidationError(
                f"schema mismatch for {served.record.spec}: row has "
                f"{row.shape[0]} features but the registered "
                f"{served.record.model_type} expects {expected}"
            )
        if not self.cache_size:
            result = self._transform_batch(served, row[None, :])[0]
            # Freeze the no-cache path too: the documented contract is
            # that mutability must not depend on cache state, and a row
            # that is writable only when caching is off would let callers
            # grow a mutation habit that turns into ValueError (or silent
            # cache corruption) the day a cache is configured.
            result.setflags(write=False)
            return result
        start = time.perf_counter()
        key = row_digest(row)
        hit = served.cache.get(key)
        if hit is not None:
            self._account(served, 1, time.perf_counter() - start)
            # The cache returns a read-only view; a caller that tries to
            # mutate its result gets a ValueError instead of silently
            # corrupting the entry for every later request.
            return hit
        # Miss: compute here rather than falling back to transform(),
        # which would re-resolve the spec, re-hash the row, and record a
        # second miss for the same lookup.
        result = served.batcher.transform(row[None, :])[0]
        served.cache.put(key, result)
        # Score on the miss path only: a cache hit re-serves a row that
        # was already scored (or deliberately skipped) when computed.
        self._observe_drift(served, row[None, :], result[None, :])
        # Freeze the miss result too: hits are read-only cache views, and
        # a result whose mutability depends on cache state would turn
        # caller mutation into an intermittent, cache-warmth-dependent
        # crash instead of a deterministic one.
        result.setflags(write=False)
        self._account(served, 1, time.perf_counter() - start)
        return result

    # ------------------------------------------------------ observability
    def stats(self) -> dict:
        """Aggregate and per-model serving statistics.

        Returns ``{"models": {spec: {...}}, "totals": {...}}``. Every
        model entry carries the original counters (``requests``, ``rows``,
        ``seconds``, ``rows_per_second``, ``cache``) plus the derived
        rates computed *here, once* from the latency histogram —
        ``rows_per_sec``, ``mean_latency_s`` and a ``latency`` summary
        with deterministic p50/p90/p99 — so callers stop re-deriving them
        (each subtly differently) from raw totals. ``seconds`` is the
        histogram's Kahan-compensated sum, so it no longer drifts the way
        the old ``+=`` accumulator did under millions of tiny requests.
        """
        # Snapshot the model table under the load lock — _served()/evict()
        # mutate the dict there, so an unguarded iteration would race
        # (RuntimeError: dict changed size). The metrics registry locks
        # internally.
        with self._load_lock:
            served_models = list(self._models.values())
        snapshot = {}
        for served in served_models:
            spec = served.record.spec
            latency = self.metrics.histogram_summary(
                "serving.request_seconds", model=spec
            )
            requests = latency["count"]
            rows = int(self.metrics.counter_value("serving.rows", model=spec))
            seconds = latency["sum"]
            rows_per_sec = rows / seconds if seconds else 0.0
            snapshot[spec] = {
                "model_type": served.record.model_type,
                "requests": requests,
                "rows": rows,
                "seconds": seconds,
                # Back-compat alias of rows_per_sec (pre-obs key).
                "rows_per_second": rows_per_sec,
                "rows_per_sec": rows_per_sec,
                "mean_latency_s": latency["mean"],
                "latency": latency,
                "cache": served.cache.info(),
            }
        total_rows = sum(entry["rows"] for entry in snapshot.values())
        total_seconds = sum(entry["seconds"] for entry in snapshot.values())
        total_requests = sum(entry["requests"] for entry in snapshot.values())
        totals = {
            "requests": total_requests,
            "rows": total_rows,
            "seconds": total_seconds,
            "rows_per_sec": total_rows / total_seconds if total_seconds else 0.0,
            "mean_latency_s": (
                total_seconds / total_requests if total_requests else 0.0
            ),
            "cache_hits": sum(entry["cache"]["hits"] for entry in snapshot.values()),
            "cache_misses": sum(
                entry["cache"]["misses"] for entry in snapshot.values()
            ),
        }
        return {"models": snapshot, "totals": totals}

    def loaded_models(self) -> list[str]:
        """Specs of the models currently warm in memory."""
        with self._load_lock:
            return sorted(
                f"{name}@{version}" for name, version in self._models
            )

    def evict(self, spec: str | None = None) -> None:
        """Drop warm models (all of them when ``spec`` is None)."""
        with self._load_lock:
            if spec is None:
                self._models.clear()
                return
            name, version = self.registry.resolve(spec)
            self._models.pop((name, version), None)

    # ------------------------------------------------------------ internal
    def _resolve(self, spec: str) -> tuple[str, int]:
        """Resolve ``spec``, memoizing pinned ``name@version`` forms.

        Every read and write of the ``_resolved`` memo happens under its
        dedicated lock — the registry round-trip for a cold spec runs
        outside it (so a slow resolve never serializes the hot path), and
        two threads racing the same first resolution both compute the
        same immutable answer, with ``setdefault`` keeping the insert
        atomic.
        """
        with self._resolve_lock:
            key = self._resolved.get(spec)
        if key is not None:
            return key
        key = self.registry.resolve(spec)
        selector = str(spec).partition("@")[2]
        if selector not in ("", "latest"):
            with self._resolve_lock:
                key = self._resolved.setdefault(spec, key)
        return key

    def _served(self, spec: str) -> _ServedModel:
        key = self._resolve(spec)
        name, version = key
        served = self._models.get(key)
        if served is not None:
            return served
        with self._load_lock:
            served = self._models.get(key)
            if served is None:
                record = self.registry.record(name, version)
                # Deserialize straight from the record's artifact path —
                # registry.load() would redundantly re-resolve and re-read
                # the manifest we just consulted.
                model = load_model(record.path)
                if not callable(getattr(model, "transform", None)):
                    raise ValidationError(
                        f"{record.spec} is a {record.model_type}, which has "
                        "no transform method and cannot be served by "
                        "TransformService"
                    )
                scorer = monitor = None
                if self.drift:
                    # Lazy import: lifecycle pulls in the numeric core,
                    # which a drift-free service never needs.
                    from ..lifecycle import DriftMonitor, scorer_for

                    scorer = scorer_for(model)
                    if scorer is not None:
                        monitor = DriftMonitor(
                            window=self.drift_window,
                            floor=self.drift_floor,
                            metrics=self.metrics,
                            name=record.spec,
                        )
                served = _ServedModel(
                    record=record,
                    model=model,
                    batcher=BatchTransformer(model, chunk_size=self.chunk_size),
                    cache=LRUCache(max_size=self.cache_size),
                    scorer=scorer,
                    monitor=monitor,
                )
                self._models[key] = served
        return served

    @staticmethod
    def _checked_matrix(record: ModelRecord, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(
                f"X must be a 2-D matrix; got ndim={X.ndim} "
                "(use transform_one for single rows)"
            )
        expected = record.n_features_in
        if expected is not None and X.shape[1] != expected:
            raise ValidationError(
                f"schema mismatch for {record.spec}: X has {X.shape[1]} "
                f"features but the registered {record.model_type} expects "
                f"{expected}"
            )
        return X

    def _transform_cached(self, served: _ServedModel, X: np.ndarray) -> np.ndarray:
        if self.cache_size == 0 or X.shape[0] == 0:
            return served.batcher.transform(X)

        digests = matrix_digests(X)
        cached = served.cache.get_many(digests)

        # Unique misses only: duplicated rows inside one request are
        # computed once, exactly like repeats across requests.
        miss_rows: list[int] = []
        miss_slot: dict[bytes, int] = {}
        for index, (digest, hit) in enumerate(zip(digests, cached)):
            if hit is None and digest not in miss_slot:
                miss_slot[digest] = len(miss_rows)
                miss_rows.append(index)

        if not miss_rows:
            return np.stack(cached)

        computed = served.batcher.transform(X[miss_rows])
        # The cache copies on put, so these row views never alias the
        # `computed` array returned to the caller below, and no row pins
        # the whole batch in memory past eviction.
        served.cache.put_many(
            (digests[index], computed[slot])
            for slot, index in enumerate(miss_rows)
        )
        if len(miss_rows) == X.shape[0]:
            # Everything missed and no within-request duplicates: `computed`
            # is already in request order — skip the assembly copy.
            return computed
        width = computed.shape[1]
        out = np.empty((X.shape[0], width), dtype=computed.dtype)
        for index, (digest, hit) in enumerate(zip(digests, cached)):
            out[index] = hit if hit is not None else computed[miss_slot[digest]]
        return out

    def _account(self, served: _ServedModel, rows: int, seconds: float) -> None:
        spec = served.record.spec
        self.metrics.inc("serving.requests", model=spec)
        self.metrics.inc("serving.rows", float(rows), model=spec)
        self.metrics.observe("serving.request_seconds", seconds, model=spec)

    def _observe_drift(self, served: _ServedModel, X, Z) -> None:
        """Fold a stride-sample of a served batch into the drift monitor.

        Never raises: a scoring failure increments
        ``serving.drift_errors`` and the request succeeds regardless —
        drift accounting is observability, not a serving dependency.
        """
        monitor = served.monitor
        if monitor is None:
            return
        n = X.shape[0]
        if n == 0:
            return
        step = max(1, n // self.drift_sample)
        idx = np.arange(0, n, step)[: self.drift_sample]
        try:
            scores = served.scorer(X[idx], Z[idx])
            monitor.observe(scores)
        except Exception:
            self.metrics.inc("serving.drift_errors", model=served.record.spec)

    def drift_status(self) -> dict:
        """Per-model drift snapshots for the warm models.

        ``{"enabled": bool, "models": {spec: DriftMonitor.snapshot()}}``;
        models without landmark coordinates (no scorer) are reported with
        ``None``.
        """
        with self._load_lock:
            served_models = list(self._models.values())
        models = {}
        for served in served_models:
            spec = served.record.spec
            models[spec] = (
                served.monitor.snapshot() if served.monitor is not None else None
            )
        return {"enabled": self.drift, "models": models}
