"""Tests of the benchmark's own logic: self time, compare verdicts, seeding.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def _span(name, start, end, parent=None, phase=False):
    record = Span(name, start, parent, phase)
    record.end = end
    return record


# ------------------------------------------------------------------ self time

def test_self_time_subtracts_nested_children():
    root = _span("a", 0.0, 10.0)
    child = _span("b", 2.0, 5.0, root)
    grandchild = _span("c", 3.0, 4.0, child)
    assert self_times([root, child, grandchild]) == pytest.approx(
        {"a": 7.0, "b": 2.0, "c": 1.0})


def test_self_time_subtracts_siblings_once_each():
    root = _span("a", 0.0, 10.0)
    spans = [root, _span("b", 1.0, 3.0, root), _span("b", 5.0, 8.0, root)]
    assert self_times(spans) == pytest.approx({"a": 5.0, "b": 5.0})


def test_self_time_counts_overlapping_children_as_their_union():
    root = _span("a", 0.0, 10.0)
    spans = [root, _span("b", 1.0, 4.0, root), _span("c", 3.0, 6.0, root)]
    assert self_times(spans)["a"] == pytest.approx(5.0)


def test_self_times_sum_to_root_duration():
    root = _span("a", 0.0, 10.0, phase=True)
    b = _span("b", 1.0, 6.0, root)
    spans = [root, b, _span("c", 2.0, 3.0, b), _span("c", 7.0, 9.5, root)]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_tracer_nests_wrapped_calls_and_reports_coverage():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer",
                        measure=lambda args, kwargs, result: {"rows": 3})
    with tracer.phase("phase"):
        outer()
        outer()
    names = [(s.name, s.parent.name if s.parent else None) for s in tracer.spans]
    assert names[:3] == [("phase", None), ("outer", "phase"), ("inner", "outer")]
    assert tracer.counts["outer.calls"] == 2
    assert tracer.counts["outer.rows"] == 6
    assert 0.0 < tracer.coverage() <= 1.0


def test_patch_function_replaces_by_name_imports_and_restores():
    import repro.core.plan as plan
    import repro.graphs.knn as knn

    original = knn.knn_graph
    assert plan.knn_graph is original
    with Tracer() as tracer:
        tracer.patch_function("repro.graphs.knn", "knn_graph", "graphs.knn_graph")
        assert knn.knn_graph is not original
        assert plan.knn_graph is knn.knn_graph
    assert knn.knn_graph is original and plan.knn_graph is original


def test_patch_method_wraps_property_and_restores():
    from repro.core.plan import SpectralFitPlan

    original = SpectralFitPlan.__dict__["graph"]
    with Tracer() as tracer:
        tracer.patch_method("repro.core.plan", "SpectralFitPlan", "graph",
                            "core.plan_graph")
        assert isinstance(SpectralFitPlan.__dict__["graph"], property)
        assert SpectralFitPlan.__dict__["graph"] is not original
    assert SpectralFitPlan.__dict__["graph"] is original


# ------------------------------------------------------------------- compare

PARENT = [10.0, 10.1, 9.9, 10.05, 9.95]


def _verdict(change, parent=PARENT, better="lower", bound=0.1):
    return compare.verdict(parent, change, list(zip(parent, change)), better, bound)


def test_compare_better_when_change_wins_every_pair():
    row = _verdict([8.0, 8.1, 7.9, 8.05, 7.95])
    assert row["verdict"] == "better"
    assert row["won"] == 1.0
    assert row["ratio"] == pytest.approx(0.8)


def test_compare_worse_beyond_bound():
    assert _verdict([12.0, 12.1, 11.9, 12.05, 11.95])["verdict"] == "worse"


def test_compare_no_worse_within_bound():
    row = _verdict([10.3, 10.4, 10.2, 10.35, 10.25])
    assert row["verdict"] == "no worse"
    assert row["won"] == 0.0


def test_compare_unresolved_when_spread_exceeds_bound():
    wide = [6.0, 14.0, 8.0, 12.0, 10.0]
    assert _verdict([7.0, 13.0, 9.0, 11.0, 10.5], parent=wide)["verdict"] == "unresolved"


def test_compare_wide_spread_resolves_when_every_change_run_wins():
    wide = [6.0, 14.0, 8.0, 12.0, 10.0]
    row = _verdict([1.0, 2.0, 1.5, 5.0, 3.0], parent=wide)
    assert row["verdict"] == "better"


def test_compare_higher_is_better():
    row = _verdict([12.0, 12.1, 11.9, 12.05, 11.95], better="higher")
    assert row["verdict"] == "better"


def test_compare_pairs_by_seed_when_seeds_match():
    assert compare.pairs({1: 1.0, 2: 2.0}, {2: 20.0, 1: 10.0}) == [(1.0, 10.0), (2.0, 20.0)]
    assert len(compare.pairs({1: 1.0}, {2: 2.0, 3: 3.0})) == 2


# ------------------------------------------------------------------- seeding

def _same(a, b) -> bool:
    if hasattr(a, "toarray"):
        return (a != b).nnz == 0 and a.shape == b.shape
    return np.array_equal(a, b)


def test_fit_inputs_follow_the_seed():
    from workloads import fit_inputs

    a, b, c = fit_inputs(3, n=400), fit_inputs(3, n=400), fit_inputs(4, n=400)
    assert _same(a["X"], b["X"]) and _same(a["w_fair"], b["w_fair"])
    assert not _same(a["X"], c["X"])


def test_serve_inputs_follow_the_seed():
    from serve_load import serve_inputs

    a, b, c = (serve_inputs(seed, miss_rows=64, batch_requests=2)
               for seed in (5, 5, 6))
    for key in ("X", "hit", "miss", "batch"):
        assert _same(a[key], b[key])
        assert not _same(a[key], c[key])
    # Every miss row is new: none repeats a hit-set row or another miss row.
    rows = np.vstack([a["hit"], a["miss"]])
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_sweep_and_reproduce_inputs_follow_the_seed():
    from workloads import reproduce_inputs, sweep_spec

    assert sweep_spec(7) == sweep_spec(7)
    assert sweep_spec(7).seeds != sweep_spec(8).seeds
    assert sweep_spec(7).n_cells == 120
    assert reproduce_inputs(7) == reproduce_inputs(7)
    assert reproduce_inputs(7) != reproduce_inputs(8)
