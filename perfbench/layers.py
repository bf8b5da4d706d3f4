"""Which ``repro`` entry points the traced run wraps, and what it reports.

Each row is ``(span name, module, class or None, attribute, measure)``.
The span name is the per-layer metric prefix: ``<name>.calls`` and
``<name>.self_s`` come from the span records, other suffixes from the
row's ``measure`` hook.
"""

from __future__ import annotations

import os


def _rows(args, kwargs, result):
    X = args[0] if args else kwargs.get("X")
    return {"rows": float(getattr(X, "shape", (0,))[0])}


def _put_bytes(args, kwargs, result):
    try:
        return {"bytes": float(os.path.getsize(result.path))}
    except (OSError, AttributeError, TypeError):
        return {"bytes": 0.0}


def _merge_conflicts(args, kwargs, result):
    return {"conflicts": float(len(getattr(result, "conflicts", ())))}


FUNCTIONS = [
    ("graphs.knn_graph", "repro.graphs.knn", "knn_graph", _rows),
    ("graphs.median_heuristic", "repro.graphs.knn", "median_heuristic", None),
    ("graphs.fairness_graph", "repro.graphs.fairness",
     "between_group_quantile_graph", None),
    ("graphs.fairness_graph", "repro.graphs.fairness",
     "equivalence_class_graph", None),
    ("graphs.laplacian", "repro.graphs.laplacian", "laplacian", None),
    ("core.select_landmarks", "repro.core.approx", "select_landmarks", None),
    ("core.smallest_eigenvectors", "repro.core.trace_optimization",
     "smallest_eigenvectors", None),
    ("core.kernel_matrix", "repro.core.kernel_pfr", "kernel_matrix", None),
    ("datasets.make_workload", "repro.experiments.builders", "make_workload",
     None),
    ("experiments.compile_cells", "repro.experiments.spec", "compile_cells",
     None),
    ("metrics.consistency", "repro.metrics.individual", "consistency", None),
    ("metrics.roc_auc", "repro.ml.metrics", "roc_auc_score", None),
    ("store.task_digest", "repro.store.digests", "task_digest", None),
    ("store.decode", "repro.store.codecs", "decode_method_result", None),
    ("store.merge", "repro.store.merge", "merge_stores", _merge_conflicts),
]

METHODS = [
    ("baselines.ifair_fit", "repro.baselines.ifair", "IFair", "fit", None),
    ("baselines.lfr_fit", "repro.baselines.lfr", "LFR", "fit", None),
    ("baselines.hardt_fit", "repro.baselines.hardt",
     "EqualizedOddsPostProcessor", "fit", None),
    ("core.plan_graph", "repro.core.plan", "SpectralFitPlan", "graph", None),
    ("core.plan_laplacians", "repro.core.plan", "SpectralFitPlan",
     "laplacians", None),
    ("core.plan_projection", "repro.core.plan", "SpectralFitPlan",
     "projection", None),
    ("core.plan_solve", "repro.core.plan", "SpectralFitPlan", "solve", None),
    ("experiments.prepare", "repro.experiments.harness", "ExperimentHarness",
     "prepare", None),
    ("experiments.run_method", "repro.experiments.harness",
     "ExperimentHarness", "run_method", None),
    ("ml.logistic_fit", "repro.ml.linear", "LogisticRegression", "fit", None),
    ("store.get", "repro.store.ledger", "RunLedger", "get", None),
    ("store.put", "repro.store.ledger", "RunLedger", "put", _put_bytes),
    ("store.verify", "repro.store.ledger", "RunLedger", "verify", None),
    ("serving.register", "repro.serving.registry", "ModelRegistry", "register",
     None),
    ("serving.transform_one", "repro.serving.service", "TransformService",
     "transform_one_versioned", None),
    ("serving.transform", "repro.serving.service", "TransformService",
     "transform_versioned", None),
]

#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("baselines.ifair_fit.calls", "count"),
    ("baselines.ifair_fit.self_s", "s"),
    ("baselines.lfr_fit.calls", "count"),
    ("baselines.lfr_fit.self_s", "s"),
    ("baselines.hardt_fit.self_s", "s"),
    ("graphs.knn_graph.calls", "count"),
    ("graphs.knn_graph.rows", "count"),
    ("graphs.knn_graph.self_s", "s"),
    ("graphs.median_heuristic.self_s", "s"),
    ("graphs.fairness_graph.self_s", "s"),
    ("graphs.laplacian.self_s", "s"),
    ("core.select_landmarks.calls", "count"),
    ("core.select_landmarks.self_s", "s"),
    ("core.plan_graph.self_s", "s"),
    ("core.plan_laplacians.self_s", "s"),
    ("core.plan_projection.self_s", "s"),
    ("core.plan_solve.calls", "count"),
    ("core.plan_solve.self_s", "s"),
    ("core.solve_cache.hit_ratio", "1"),
    ("core.smallest_eigenvectors.calls", "count"),
    ("core.smallest_eigenvectors.self_s", "s"),
    ("core.kernel_matrix.calls", "count"),
    ("core.kernel_matrix.self_s", "s"),
    ("datasets.make_workload.calls", "count"),
    ("datasets.make_workload.self_s", "s"),
    ("experiments.prepare.calls", "count"),
    ("experiments.prepare.self_s", "s"),
    ("experiments.run_method.calls", "count"),
    ("experiments.run_method.self_s", "s"),
    ("experiments.compile_cells.self_s", "s"),
    ("ml.logistic_fit.calls", "count"),
    ("ml.logistic_fit.self_s", "s"),
    ("metrics.consistency.calls", "count"),
    ("metrics.consistency.self_s", "s"),
    ("metrics.roc_auc.calls", "count"),
    ("metrics.roc_auc.self_s", "s"),
    ("store.get.calls", "count"),
    ("store.get.self_s", "s"),
    ("store.put.calls", "count"),
    ("store.put.self_s", "s"),
    ("store.put.bytes", "bytes"),
    ("store.hit_ratio", "1"),
    ("store.task_digest.self_s", "s"),
    ("store.decode.self_s", "s"),
    ("store.merge.self_s", "s"),
    ("store.merge.conflicts", "count"),
    ("store.verify.self_s", "s"),
    ("serving.dispatch_p50_ms", "ms"),
    ("serving.compute_p50_ms", "ms"),
    ("serving.transport_p50_ms", "ms"),
    ("serving.transform_one_hit_us", "us"),
    ("serving.transform_one_miss_us", "us"),
    ("serving.transform_batch_us_per_row", "us"),
    ("serving.row_digest_us", "us"),
    ("serving.lru_get_us", "us"),
    ("serving.json_decode_us", "us"),
    ("serving.model_transform_us", "us"),
    ("serving.cache_hit_ratio", "1"),
    ("serving.register_s", "s"),
    ("serving.boot_s", "s"),
    ("serving.requests", "count"),
    ("serving.failed", "count"),
    ("serving.gen_late_ms", "ms"),
    ("serving.backlog", "count"),
    ("serving.hit_p50_ms", "ms"),
    ("serving.hit_p90_ms", "ms"),
    ("serving.hit_p99_ms", "ms"),
    ("serving.miss_p50_ms", "ms"),
    ("serving.miss_p90_ms", "ms"),
    ("serving.max_rps", "1/s"),
    ("serving.batch_rows_per_s", "rows/s"),
    ("result.pfr_consistency_wf", "1"),
    ("result.pfr_auc", "1"),
    ("result.landmark_fidelity", "1"),
    ("bench.unattributed_s", "s"),
    ("obs.trace_overhead", "1"),
    ("obs.span_coverage", "1"),
]


def install(tracer) -> None:
    """Wrap every entry point in the tables above on ``tracer``."""
    for name, module, attr, measure in FUNCTIONS:
        tracer.patch_function(module, attr, name, measure)
    for name, module, cls, attr, measure in METHODS:
        tracer.patch_method(module, cls, attr, name, measure)


def counter_totals(snapshot: dict) -> dict:
    """Sum a ``repro.obs`` registry snapshot's counters over their labels."""
    totals: dict = {}
    for entry in snapshot.get("counters", ()):
        totals[entry["name"]] = totals.get(entry["name"], 0.0) + entry["value"]
    return totals


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer, counters_before: dict, counters_after: dict) -> dict:
    """Per-layer values from the tracer's spans plus obs counter deltas."""
    values = {name: 0.0 for name, _unit in PER_LAYER}
    for name, seconds in tracer.self_times().items():
        key = f"{name}.self_s"
        if key in values:
            values[key] = seconds
    for key, count in tracer.counts.items():
        if key in values:
            values[key] = count
    delta = {
        key: counters_after.get(key, 0.0) - counters_before.get(key, 0.0)
        for key in set(counters_after) | set(counters_before)
    }
    values["core.solve_cache.hit_ratio"] = _ratio(
        delta.get("plan.solve_cache.hits", 0.0),
        delta.get("plan.solve_cache.misses", 0.0),
    )
    values["store.hit_ratio"] = _ratio(
        delta.get("ledger.hits", 0.0), delta.get("ledger.misses", 0.0)
    )
    unattributed = 0.0
    for table in tracer.phase_breakdown().values():
        unattributed += table.get("(unattributed)", 0.0)
    values["bench.unattributed_s"] = unattributed
    values["obs.span_coverage"] = tracer.coverage()
    return values
