"""Serving layer: batched, caching, concurrent cost prediction.

Two tiers, matching the ROADMAP's serve-heavy-traffic north star:

* :class:`~repro.serve.service.CostModelService` fronts any fitted
  :class:`~repro.models.api.CostEstimator` with micro-batching and an
  LRU-bounded cache of per-plan encode precomputes — the single-caller
  library helper (PR 4);
* :class:`~repro.serve.server.PredictionServer` is the concurrent,
  multi-tenant front end over it: a bounded request queue with
  work-conserving cross-client micro-batching (the batcher takes
  everything queued, up to ``max_batch_size``, the moment it is free;
  an opt-in ``max_wait_ms`` trades latency for fewer, larger batches),
  admission control that sheds load with
  :class:`~repro.errors.Overloaded`, hot model swap via the
  ``load_estimator`` manifests with zero dropped requests, and
  per-request latency tracking (p50/p99) in
  :class:`~repro.serve.service.ServiceStats`.

Both tiers answer bit-identically to direct
``CostEstimator.predict_runtime`` calls — the deployment shape of the
paper's *one model serves every database* story.
"""

from repro.serve.server import PredictionServer
from repro.serve.service import CostModelService, ServiceStats

__all__ = [
    "CostModelService",
    "PredictionServer",
    "ServiceStats",
]
