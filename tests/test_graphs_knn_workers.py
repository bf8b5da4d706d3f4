"""Exact k-NN queries run on the CPU budget without changing a single bit.

The exact backend splits its cKDTree query rows across the budget's
threads. Each row's traversal is independent of the others, so every
graph below must be byte-identical whether the budget is 1 or 2.
"""

import numpy as np
import pytest

from repro import PFR, _cpu
from repro.datasets import simulate_blobs
from repro.graphs import knn_cross, knn_graph
from repro.obs import RingBufferSink, add_sink, remove_sink

BUDGETS = (1, 2)


def _csr_arrays(W) -> tuple:
    W = W.tocsr()
    return (W.data.tobytes(), W.indices.tobytes(), W.indptr.tobytes())


def _per_budget(monkeypatch, build) -> list:
    out = []
    for budget in BUDGETS:
        monkeypatch.setattr(_cpu, "_budget", budget)
        out.append(build())
    return out


def _blob_rows(n=1500, seed=3):
    # The fit workload's generator and width, at a test-sized n.
    return simulate_blobs(n, n_features=24, seed=seed).X


def _duplicate_rows():
    # Six distinct points, each repeated eight times: with k=5 every
    # k+1 query set is all coincident rows, so the tree may list the
    # row's duplicates ahead of the row itself.
    return np.repeat(np.arange(6.0)[:, None], 8, axis=0) @ np.ones((1, 3))


CASES = {
    "blobs": lambda: knn_graph(_blob_rows(), n_neighbors=10),
    "duplicates": lambda: knn_graph(_duplicate_rows(), n_neighbors=5),
    "exclude": lambda: knn_graph(_blob_rows(400), n_neighbors=6, exclude=[0, 5]),
    "float32": lambda: knn_graph(_blob_rows(400), n_neighbors=6, dtype=np.float32),
    "cross_blobs": lambda: knn_cross(
        _blob_rows(600, seed=4), _blob_rows(300), n_neighbors=8
    ),
    "cross_k1": lambda: knn_cross(
        _blob_rows(200, seed=4), _blob_rows(100), n_neighbors=1
    ),
    "cross_duplicates": lambda: knn_cross(
        _duplicate_rows()[::2], _duplicate_rows(), n_neighbors=3
    ),
    "cross_exclude": lambda: knn_cross(
        _blob_rows(200, seed=4), _blob_rows(150), n_neighbors=4, exclude=[2]
    ),
    "cross_float32": lambda: knn_cross(
        _blob_rows(200, seed=4), _blob_rows(150), n_neighbors=4,
        dtype=np.float32,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_is_bitwise_identical_across_budgets(monkeypatch, case):
    one, two = _per_budget(monkeypatch, CASES[case])
    assert one.dtype == two.dtype
    assert _csr_arrays(one) == _csr_arrays(two)


def test_pfr_plan_digests_match_across_budgets(monkeypatch):
    data = simulate_blobs(600, n_features=8, seed=11)
    w_fair = knn_graph(data.side_information[:, None], n_neighbors=8,
                       bandwidth=1.0)

    def fit():
        return PFR(n_components=3, gamma=0.5).fit(data.X, w_fair)

    one, two = _per_budget(monkeypatch, fit)
    assert one.plan_digests_ == two.plan_digests_
    assert one.components_.tobytes() == two.components_.tobytes()


def test_spans_record_the_thread_count(monkeypatch):
    sink = RingBufferSink()
    add_sink(sink)
    try:
        monkeypatch.setattr(_cpu, "_budget", 2)
        X = _blob_rows(100)
        knn_graph(X, n_neighbors=4)
        knn_cross(X[:10], X, n_neighbors=4)
        knn_graph(X, n_neighbors=4, backend="blocked")
    finally:
        remove_sink(sink)
    spans = [r for r in sink.records() if r["type"] == "span"]
    workers = [(r["name"], r["attrs"]["workers"]) for r in spans]
    assert workers == [
        ("graphs.knn_graph", 2),
        ("graphs.knn_cross", 2),
        ("graphs.knn_graph", 1),
    ]
