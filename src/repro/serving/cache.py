"""LRU result cache for the transform service.

Production traffic to a fairness-representation service is heavy-tailed:
the same individuals (active users, repeat applicants) are looked up far
more often than cold ones. Because a fitted transformer is a pure function
of its input row, the projected representation can be cached by a digest of
the raw feature vector and served without touching the matmul at all.

The cache is a plain ordered-dict LRU guarded by a lock — safe to share
between the HTTP server's request worker threads.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..exceptions import ValidationError

__all__ = ["LRUCache", "row_digest", "matrix_digests"]


def row_digest(row) -> bytes:
    """Stable digest of one feature row.

    The row is canonicalized to contiguous float64 before hashing so that
    logically equal inputs (lists, float32 views, non-contiguous slices)
    collide on purpose. blake2b is used for speed; 16 bytes of digest keep
    accidental collisions at the ``2^-64`` level, far below any numerical
    concern.
    """
    canonical = np.ascontiguousarray(row, dtype=np.float64)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(canonical.tobytes())
    return hasher.digest()


def matrix_digests(X: np.ndarray) -> list[bytes]:
    """Per-row digests of a 2-D matrix (one :func:`row_digest` per row)."""
    canonical = np.ascontiguousarray(X, dtype=np.float64)
    if canonical.ndim != 2:
        raise ValidationError(
            f"matrix_digests expects a 2-D matrix; got ndim={canonical.ndim}"
        )
    view = canonical.view(np.uint8).reshape(canonical.shape[0], -1)
    hasher = hashlib.blake2b
    return [hasher(row.tobytes(), digest_size=16).digest() for row in view]


def _frozen_copy(value):
    """Defensive, read-only copy of an array value (non-arrays pass through).

    ``put`` must not keep an alias into caller-owned memory: a caller that
    keeps mutating the array it inserted would silently corrupt the cache
    for every later request. The stored copy is marked non-writeable so
    the read-only contract survives round-trips.
    """
    if isinstance(value, np.ndarray):
        value = np.array(value)
        value.setflags(write=False)
    return value


def _readonly_view(value):
    """Read-only view of a cached array value (non-arrays pass through).

    ``get`` must not hand out the stored array itself: a caller mutating
    its result would corrupt the entry for every later hit. A view of the
    non-writeable stored copy cannot be flipped writeable (numpy refuses
    when the base is read-only), so caller mutation raises ``ValueError``
    instead of corrupting shared state — and no per-hit data copy is paid.
    """
    if isinstance(value, np.ndarray):
        return value.view()
    return value


class LRUCache:
    """Thread-safe least-recently-used cache with hit/miss accounting.

    Array values are stored as defensive read-only copies and served as
    read-only views: neither the inserting caller (by mutating its source
    array) nor a reading caller (by mutating a returned row) can alter a
    cached entry — attempted writes to a returned row raise ``ValueError``.

    Parameters
    ----------
    max_size:
        Maximum number of entries retained; the least recently *used*
        (read or written) entry is evicted first. ``max_size=0`` disables
        caching entirely (every lookup misses, nothing is stored).
    """

    def __init__(self, max_size: int = 100_000):
        if max_size < 0:
            raise ValidationError(f"max_size must be >= 0; got {max_size}")
        self.max_size = max_size
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: bytes):
        """Return the cached value (read-only) or ``None``.

        Updates recency and counters. Array values come back as read-only
        views — mutating one raises instead of corrupting the cache.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return _readonly_view(value)

    def put(self, key: bytes, value) -> None:
        """Insert/refresh an entry, evicting the oldest beyond ``max_size``.

        Array values are copied defensively; later mutation of the
        caller's array cannot alter the stored entry.
        """
        if self.max_size == 0:
            return
        value = _frozen_copy(value)
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def get_many(self, keys) -> list:
        """Vector lookup: one lock acquisition for a whole batch of keys.

        Hits come back read-only, exactly like :meth:`get`.
        """
        with self._lock:
            out = []
            for key in keys:
                value = self._entries.get(key)
                if value is None:
                    self._misses += 1
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    value = _readonly_view(value)
                out.append(value)
            return out

    def put_many(self, pairs) -> None:
        """Vector insert: one lock acquisition for a batch of (key, value).

        Array values are copied defensively, exactly like :meth:`put`.
        """
        if self.max_size == 0:
            return
        # Copy outside the lock: the copies are per-pair private work and
        # the generator's cost should not extend the critical section.
        frozen = [(key, _frozen_copy(value)) for key, value in pairs]
        with self._lock:
            for key, value in frozen:
                self._entries[key] = value
                self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def info(self) -> dict:
        """Counters snapshot: size, capacity, hits, misses, hit_rate."""
        with self._lock:
            hits, misses = self._hits, self._misses
            size = len(self._entries)
        total = hits + misses
        return {
            "size": size,
            "max_size": self.max_size,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
