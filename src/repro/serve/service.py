"""Batched, caching prediction service over a fitted cost estimator.

The ROADMAP's north star is serving cost predictions to heavy traffic.
Per-request :meth:`~repro.models.api.CostEstimator.predict_runtime`
calls pay the full price every time: Python-level featurization of the
plan, per-type feature scaling, and a model forward whose fixed
overhead dwarfs the per-sample work at batch size one.
:class:`CostModelService` removes both costs:

* **micro-batching** — requests are featurized individually but pushed
  through the model in chunks of up to ``max_batch_size`` samples, so
  the per-forward overhead amortizes across the batch; a request that
  repeats one already in its chunk rides along without a forward row;
* **encode caching** — the per-plan encode precompute (for the
  zero-shot model: the scaled
  :class:`~repro.featurize.batch.EncodedGraph` of ``encode_graph``) is
  cached under an LRU bound, keyed by plan identity (SQL text for
  string requests), so repeated predictions of a known plan skip
  featurization entirely.

:class:`ServiceStats` counts what both serving tiers do (requests,
batches, and for the server rejections, failures and swaps) and keeps a
window of request latencies for ``latency_p99``; its ``cache_*`` and
``hit_rate`` read the encode cache's own counters, which count across
``clear_cache()``.

Because inference is **batch-size invariant** (single-row matmuls take
the same BLAS path as batched ones, see ``repro.nn.tensor``), the
service returns bit-identical predictions to direct
``predict_runtime`` calls — cold cache, warm cache, or any micro-batch
partition.  ``benchmarks/test_microbench.py`` checks this at default
scale.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.db.database import Database
from repro.errors import ModelError
from repro.models.api import CostEstimator, resolve_plans
from repro.plans.plan import PhysicalPlan
from repro.util import LRUCache

__all__ = ["CostModelService", "ServiceStats"]

#: Per-request latencies retained for the quantile estimates — a
#: sliding window, so ``latency_p99`` tracks *recent* behaviour instead
#: of averaging a warm steady state with the cold start.
LATENCY_WINDOW = 8192


@dataclass
class ServiceStats:
    """Operational counters of one service or server instance.

    All mutation goes through :meth:`add` / :meth:`observe_latencies`,
    which are **thread-safe**: the concurrent front end
    (:class:`~repro.serve.server.PredictionServer`) increments counters
    from its batcher thread while any number of client threads read
    them, and a bare ``+=`` on a shared int is a read-modify-write race
    under that interleaving.
    """

    requests: int = 0        #: plans/queries predicted successfully
    batches: int = 0         #: model forwards / server batches issued
    rejected: int = 0        #: requests shed by admission control
    failures: int = 0        #: requests failed by an estimator error
    swaps: int = 0           #: hot model swaps installed
    batcher_crashes: int = 0  #: errors that escaped and stopped a server
    #: The encode cache ``cache_*`` / ``hit_rate`` read (the server's
    #: stats have none: an empty ``LRUCache(0)`` reads zero).
    cache: LRUCache = field(default_factory=lambda: LRUCache(0), repr=False)

    def __post_init__(self):
        self._mutex = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)

    def add(self, **deltas: int) -> None:
        """Atomically apply counter increments, e.g.
        ``stats.add(requests=8, batches=1)``."""
        with self._mutex:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    # -- per-request latency tracking ----------------------------------
    def observe_latencies(self, seconds: Iterable[float]) -> None:
        """Record one batch's submit→response latencies under a single
        lock take."""
        with self._mutex:
            self._latencies.extend(seconds)

    @property
    def latency_p99(self) -> float:
        """99th-percentile request latency (seconds) over the sliding
        window — the SLO bound; NaN before the first request."""
        with self._mutex:
            if not self._latencies:
                return float("nan")
            samples = np.fromiter(self._latencies, dtype=np.float64)
        return float(np.quantile(samples, 0.99))

    @property
    def cache_hits(self) -> int:
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.cache.misses

    @property
    def cache_evictions(self) -> int:
        return self.cache.evictions

    @property
    def hit_rate(self) -> float:
        return self.cache.hit_rate


@dataclass
class _CacheEntry:
    encoded: Any
    #: Strong reference pinning the request object while its encoding
    #: is cached: identity keys stay unambiguous because a cached
    #: object's ``id`` cannot be recycled.
    source: Any


class CostModelService:
    """Serve one fitted estimator on one database (see module docs).

    Parameters
    ----------
    estimator:
        Any fitted :class:`~repro.models.api.CostEstimator`.
    database:
        The database predictions are served for (plans are validated
        against it by the estimator's featurizer; SQL requests are
        parsed and planned on it).
    max_batch_size:
        Upper bound on samples per model forward.
    cache_entries:
        LRU bound on cached per-plan encodings (0 disables caching).
    """

    def __init__(self, estimator: CostEstimator, database: Database,
                 max_batch_size: int = 64, cache_entries: int = 512):
        if not isinstance(estimator, CostEstimator):
            raise ModelError(
                "CostModelService needs a CostEstimator; wrap core models "
                "via repro.models.get_estimator / ZeroShotEstimator(model=...)"
            )
        estimator._require_fitted()
        if max_batch_size < 1:
            raise ModelError(f"max_batch_size must be >= 1, "
                             f"got {max_batch_size}")
        if cache_entries < 0:
            raise ModelError(f"cache_entries must be >= 0, "
                             f"got {cache_entries}")
        self.estimator = estimator
        self.database = database
        self.max_batch_size = max_batch_size
        self.cache_entries = cache_entries
        self._cache = LRUCache(cache_entries)
        self.stats = ServiceStats(cache=self._cache)

    # ------------------------------------------------------------------
    def predict_log_runtime(self,
                            items: Sequence["PhysicalPlan | str | Any"]
                            ) -> np.ndarray:
        """Predicted log-runtimes for a batch of plans / queries / SQL:
        every item encoded through the cache, then forwarded in
        micro-batches of up to ``max_batch_size``."""
        encoded = [self._encode(item)[0] for item in items]
        self.stats.add(requests=len(encoded))
        outputs = []
        for start in range(0, len(encoded), self.max_batch_size):
            self.stats.add(batches=1)
            outputs.append(self._predict_distinct(
                encoded[start:start + self.max_batch_size]))
        return np.concatenate(outputs) if outputs else np.zeros(0)

    def _predict_distinct(self, chunk: list) -> np.ndarray:
        """One micro-batch, each distinct request forwarded once.

        Requests for one plan object or one SQL text share a cached
        encoding; a prediction does not depend on what else rides in
        the batch, so the copies take the answer of the first.
        """
        distinct = {id(encoded): encoded for encoded in chunk}
        if len(distinct) == len(chunk):
            return self.estimator.predict_encoded(chunk)
        answers = np.asarray(
            self.estimator.predict_encoded(list(distinct.values())))
        if len(answers) != len(distinct):
            raise ModelError(
                f"estimator returned {len(answers)} predictions for "
                f"{len(distinct)} distinct requests")
        slot = {key: index for index, key in enumerate(distinct)}
        return answers[[slot[id(encoded)] for encoded in chunk]]

    def predict_runtime(self, items: Sequence["PhysicalPlan | str | Any"]
                        ) -> np.ndarray:
        """Predicted runtimes in seconds."""
        return np.exp(self.predict_log_runtime(items))

    # ------------------------------------------------------------------
    def warm(self, items: Sequence["PhysicalPlan | str | Any"]) -> int:
        """Pre-populate the encode cache (featurization cost only, no
        model forwards); returns the number of fresh encodes, counted
        here: the cache's counters move with every caller."""
        return sum(self._encode(item)[1] for item in items)

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    @staticmethod
    def _key_of(item) -> Any:
        # SQL text keys by value (parsing + planning is deterministic
        # for a fixed database); plan objects key by identity.
        if isinstance(item, str):
            return ("sql", item)
        return ("plan", id(item))

    def _encode(self, item) -> tuple[Any, bool]:
        """The item's encode precompute, and whether it was computed
        fresh (a cache miss)."""
        key = self._key_of(item)
        entry = self._cache.get(key)
        if entry is not None:
            return entry.encoded, False
        # A cache hit skips this entirely: SQL requests save the parse +
        # plan + featurize, plan requests save the featurize.
        plan = item if isinstance(item, PhysicalPlan) \
            else resolve_plans([item], self.database)[0]
        encoded = self.estimator.encode_plans([plan], self.database)[0]
        self._cache.put(key, _CacheEntry(encoded=encoded, source=item))
        return encoded, True
