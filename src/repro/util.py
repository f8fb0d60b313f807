"""The two mechanisms every layer shares: one LRU cache, one registry.

:class:`LRUCache` is the bounded memo behind the executor's build-side
and compiled-filter caches, the featurizer's level-plan cache, the
serving tier's encode cache and the learned-cardinality estimator's
per-query cache.  :class:`Registry` is the key → value table behind
every ``register_*`` / ``get_*`` / ``available_*`` / ``reset_*``
function (join kernels, operator handlers, simulator cost models,
estimators, system configurations, rewrite rules).

Each owner keeps only what is specific to it (its key derivation, its
entry type, its error class and its public wrapper functions); the
mechanism lives here once.  Stdlib only, so every layer can import it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

__all__ = ["LRUCache", "Registry"]


class LRUCache:
    """A bounded least-recently-used map with hit/miss/eviction counters.

    A hit moves the entry to the most-recently-used end; a ``put``
    evicts from the least-recently-used end until the bound holds.
    Lookup and move-to-front happen under one lock, so a concurrent
    ``clear`` can never land between them.  ``max_entries=0`` stores
    nothing and therefore never counts an eviction.  ``None`` is the
    miss sentinel: do not store it as a value.
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

    def put(self, key: Hashable, value: Any) -> int:
        """Store ``value`` as most recently used; returns how many
        entries the bound evicted."""
        with self._lock:
            if self.max_entries == 0:
                return 0
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            return evicted

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


def _label(key: Any) -> str:
    """How a key reads in an error message: class name or ``repr``."""
    return key.__name__ if isinstance(key, type) else repr(key)


class Registry:
    """A key → value table with eager validation and restorable edits.

    Keys are non-empty strings, or — with ``key_base`` — subclasses of
    that class, in which case :meth:`get` walks the key's MRO so a
    subclass inherits its parent's binding.  Values must satisfy
    ``accepts`` (``expects`` words the rejection).  Every failure raises
    the owner's ``error`` class.  Bindings keep registration order.
    """

    def __init__(self, noun: str, error: type[Exception], *,
                 key_base: type | None = None,
                 accepts: Callable[[Any], bool] = callable,
                 expects: str = "callable",
                 defaults: Mapping[Any, Any] | None = None):
        self.noun = noun
        self.error = error
        self.key_base = key_base
        self.accepts = accepts
        self.expects = expects
        self._defaults: dict[Any, Any] = {}
        self._table: dict[Any, Any] = {}
        for key, value in (defaults or {}).items():
            self.register(key, value, default=True)

    def _check_key(self, key: Any) -> None:
        if self.key_base is None:
            if not isinstance(key, str) or not key:
                raise self.error(f"{self.noun} name must be a non-empty "
                                 f"string, got {key!r}")
        elif not (isinstance(key, type) and issubclass(key, self.key_base)):
            raise self.error(
                f"{self.noun}s must be registered for "
                f"{self.key_base.__name__} subclasses, got {key!r}")

    def register(self, key: Any, value: Any, default: bool = False) -> Any:
        """Bind ``key`` to ``value``; returns the previous binding.

        Passing the returned value back restores the prior state —
        including ``None``, which removes the key's own binding.
        ``default=True`` also records the binding in the built-in set
        :meth:`reset` restores.
        """
        self._check_key(key)
        previous = self._table.get(key)
        if value is None:
            self._table.pop(key, None)
            return previous
        if not self.accepts(value):
            raise self.error(f"{self.noun} for {_label(key)} must be "
                             f"{self.expects}, got {value!r}")
        self._table[key] = value
        if default:
            self._defaults[key] = value
        return previous

    def get(self, key: Any) -> Any:
        """The binding for ``key`` (for a class key: for the nearest
        registered class in its MRO); unknown keys raise with the
        available list."""
        for candidate in getattr(key, "__mro__", (key,)):
            value = self._table.get(candidate)
            if value is not None:
                return value
        listing = ", ".join(_label(known) for known in self._table)
        raise self.error(f"unknown {self.noun} {_label(key)}; "
                         f"available: {listing or 'none'}")

    def available(self) -> tuple:
        """Registered keys in registration order."""
        return tuple(self._table)

    def snapshot(self) -> dict:
        """A copy of the current key → value table."""
        return dict(self._table)

    def reset(self) -> None:
        """Restore the built-in set (drop every other registration)."""
        self._table.clear()
        self._table.update(self._defaults)
