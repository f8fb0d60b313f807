"""The one cache every layer shares.

:class:`LRUCache` is the bounded memo behind the executor's build-side
and compiled-filter caches, the featurizer's level-plan cache, the
serving tier's encode cache and the learned-cardinality estimator's
per-query cache.  Each owner keeps only what is specific to it (its key
derivation, its entry type, its error class); the mechanism lives here
once, and so do its hits / misses / evictions: an owner that reports
them reads them here, and ``clear()`` keeps them.  Stdlib only, so
every layer can import it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["LRUCache"]


class LRUCache:
    """A bounded least-recently-used map with hit/miss/eviction counters.

    A hit moves the entry to the most-recently-used end; a ``put``
    evicts from the least-recently-used end until the bound holds.
    Lookup and move-to-front happen under one lock, so a concurrent
    ``clear`` can never land between them; the counters move under the
    same lock and count for the cache's whole life.  ``max_entries=0``
    stores nothing and therefore never counts an eviction.  ``None`` is
    the miss sentinel: do not store it as a value.
    """

    def __init__(self, max_entries: int):
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be non-negative, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The cached value (now most recently used), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as most recently used."""
        with self._lock:
            if self.max_entries == 0:
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry; the counters keep counting."""
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit, read under the counters' lock
        so that it never mixes two updates."""
        with self._lock:
            hits, misses = self.hits, self.misses
        return hits / (hits + misses) if hits + misses else 0.0
