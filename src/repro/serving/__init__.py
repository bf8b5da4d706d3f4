"""Serving layer: model registry + high-throughput batched transforms.

The paper's deployability claim (§3.3) is that a fitted PFR maps unseen
individuals into the fair representation with no pairwise judgments at
test time — i.e. the fitted map is the artifact you put behind an online
service. This package operationalizes that claim:

* :class:`ModelRegistry` — versioned on-disk storage of fitted estimators
  (``register`` / resolve ``name@version`` / ``promote``) with manifests
  recording model type, hyper-parameters, library version, and input schema.
* :class:`BatchTransformer` — bulk chunking so throughput is bounded by
  the matmul, not per-row python overhead, at bounded peak memory.
* :class:`LRUCache` — digest-keyed result cache for heavy-tailed traffic.
* :class:`TransformService` — the thread-safe façade tying the above
  together, with hit/miss/latency counters.
* :class:`ServingServer` — a stdlib asyncio HTTP front end over one
  shared service replica (``POST /transform``, model list/show/promote,
  ``/healthz``, Prometheus ``/metrics``), with bounded queues and
  per-request timeouts so overload degrades to 429/503; also the
  ``python -m repro serve`` CLI.

Quickstart::

    from repro.serving import ModelRegistry, TransformService

    registry = ModelRegistry("models/")
    registry.register("pfr-admissions", fitted_pfr)

    service = TransformService(registry)
    Z = service.transform("pfr-admissions@latest", X_new)
"""

from .batching import BatchTransformer
from .cache import LRUCache, matrix_digests, row_digest
from .http import ServingServer
from .registry import ModelRecord, ModelRegistry
from .service import TransformService

__all__ = [
    "BatchTransformer",
    "LRUCache",
    "row_digest",
    "matrix_digests",
    "ModelRecord",
    "ModelRegistry",
    "ServingServer",
    "TransformService",
]
