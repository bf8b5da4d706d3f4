"""Request batching for the transform service.

:class:`BatchTransformer` is the synchronous bulk path: one huge matrix
is transformed in bounded-size chunks so peak memory stays
``O(chunk_size · max(m, d))`` instead of ``O(n · (m + d))`` for the
intermediate buffers some transformers allocate (KernelPFR materializes
an ``(n, n_train)`` kernel block, for example).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["BatchTransformer"]


class BatchTransformer:
    """Chunked synchronous transform over an arbitrary fitted transformer.

    Parameters
    ----------
    model:
        Any fitted object exposing ``transform(X) -> ndarray``.
    chunk_size:
        Maximum number of rows passed to ``model.transform`` at once.
        Inputs at or below this size are forwarded in a single call.
    """

    def __init__(self, model, chunk_size: int = 8192):
        if chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1; got {chunk_size}")
        self.model = model
        self.chunk_size = chunk_size

    def transform(self, X) -> np.ndarray:
        """Transform ``X`` chunk by chunk and concatenate the results."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-dimensional; got ndim={X.ndim}")
        n = X.shape[0]
        if n <= self.chunk_size:
            return np.asarray(self.model.transform(X))
        pieces = [
            np.asarray(self.model.transform(X[start:start + self.chunk_size]))
            for start in range(0, n, self.chunk_size)
        ]
        return np.concatenate(pieces, axis=0)
