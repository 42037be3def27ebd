"""Warm fit cache: keep deserialized forests hot between requests.

Deserializing a ``repro-fit/1`` artifact (JSON parse + node-array
reconstruction) costs orders of magnitude more than the prediction it
enables, so the server keeps recently used :class:`ServableFit`\\ s in a
bounded LRU. Identity is the registry address — ``(campaign dirname,
resolved version)`` — so two queries for the same published fit share
one deserialized object.

Hits, misses and evictions are counted both locally (:attr:`FitCache.stats`,
always on) and into :mod:`repro.obs.metrics` (``serve.cache.hit`` /
``serve.cache.miss`` / ``serve.cache.eviction``) when a collection
window is installed. Eviction order is strict least-recently-*used*:
a cache hit refreshes recency, so the pinned-order test in
``tests/serve/test_cache.py`` is part of the contract, not an accident
of ``OrderedDict`` internals.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.obs.metrics import inc

from .artifact import ServableFit

__all__ = ["FitCache"]


class FitCache:
    """Bounded LRU of deserialized fits, keyed by registry address."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError(
                f"cache needs at least one slot; got max_entries={max_entries}"
            )
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, ServableFit]" = OrderedDict()
        self.stats = {"hit": 0, "miss": 0, "eviction": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def keys(self) -> list[tuple]:
        """Cached addresses, least recently used first."""
        return list(self._entries)

    def get(
        self, key: tuple, loader: Callable[[], ServableFit]
    ) -> ServableFit:
        """The cached fit for ``key``, calling ``loader`` on a miss.

        A loader that raises caches nothing — a corrupt artifact must
        not poison the cache and mask a later re-publish.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats["hit"] += 1
            inc("serve.cache.hit")
            return entry
        self.stats["miss"] += 1
        inc("serve.cache.miss")
        entry = loader()
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats["eviction"] += 1
            inc("serve.cache.eviction")
        return entry

    def invalidate_key(self, dirname: str) -> int:
        """Drop every cached version of one campaign (hot reload after a
        re-publish whose version id is not knowable here). Returns how
        many entries were dropped."""
        victims = [k for k in self._entries if k[0] == dirname]
        for key in victims:
            del self._entries[key]
        return len(victims)

    def clear(self) -> None:
        self._entries.clear()
