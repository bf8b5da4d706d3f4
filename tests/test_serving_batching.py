"""Tests for repro.serving.batching — the chunked bulk path."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.serving import BatchTransformer


class RecordingModel:
    """Linear transform that records every batch size it sees."""

    def __init__(self, V):
        self.V = V
        self.batch_sizes = []

    def transform(self, X):
        X = np.asarray(X)
        self.batch_sizes.append(X.shape[0])
        return X @ self.V


@pytest.fixture
def model(rng):
    return RecordingModel(rng.normal(size=(6, 3)))


class TestBatchTransformer:
    def test_small_input_single_call(self, model, rng):
        X = rng.normal(size=(10, 6))
        Z = BatchTransformer(model, chunk_size=64).transform(X)
        np.testing.assert_allclose(Z, X @ model.V)
        assert model.batch_sizes == [10]

    def test_large_input_chunked(self, model, rng):
        X = rng.normal(size=(25, 6))
        Z = BatchTransformer(model, chunk_size=10).transform(X)
        np.testing.assert_allclose(Z, X @ model.V)
        assert model.batch_sizes == [10, 10, 5]

    def test_exact_multiple(self, model, rng):
        X = rng.normal(size=(20, 6))
        BatchTransformer(model, chunk_size=10).transform(X)
        assert model.batch_sizes == [10, 10]

    def test_bad_chunk_size(self, model):
        with pytest.raises(ValidationError, match="chunk_size"):
            BatchTransformer(model, chunk_size=0)

    def test_rejects_1d(self, model, rng):
        with pytest.raises(ValidationError, match="2-dimensional"):
            BatchTransformer(model).transform(rng.normal(size=6))

