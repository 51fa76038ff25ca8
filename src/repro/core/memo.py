"""Bounded shape-keyed memoization for pure cost-model functions.

The simulator's hot paths (MME geometry search, GEMM estimates,
element-wise costs, collective pricing, per-layer Llama terms) are pure
functions of a small shape key -- ``(m, k, n, dtype)`` and friends --
yet every figure grid and serving step re-derived them from scratch.
:class:`CostCache` gives each call site a bounded LRU keyed on the
shape, with hit/miss/eviction counters that aggregate per cache *name*
(several device instances may share a name; their stats merge).

Caches register themselves in a process-global weak registry so the
CLI and tests can inspect (:func:`cache_stats`, :func:`render_stats`),
reset (:func:`clear_caches`), or export (:func:`publish_metrics`)
everything without holding references.  Cached values must be treated
as immutable by callers; ``None`` cannot be cached (it encodes a
miss).

Memoization can be switched off globally -- :func:`disabled` for a
scope (the golden-equivalence tests), or the ``REPRO_NO_MEMO=1``
environment variable for a whole process (the perf harness's cold-path
baseline).
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Hashable, Iterator, List, Optional

from repro.audit import get_auditor

__all__ = [
    "CostCache",
    "cache_stats",
    "clear_caches",
    "disabled",
    "iter_caches",
    "memoization_enabled",
    "publish_metrics",
    "render_stats",
    "set_enabled",
]

#: Default LRU bound; large enough for the full figure grids, small
#: enough that a runaway key space stays bounded.
DEFAULT_MAXSIZE = 4096

_REGISTRY: "weakref.WeakSet[CostCache]" = weakref.WeakSet()

#: Hit/miss/eviction counters of caches already garbage-collected, per
#: name, so registry totals do not depend on when the collector runs.
_RETIRED: Dict[str, Dict[str, int]] = {}

_enabled = os.environ.get("REPRO_NO_MEMO", "").lower() not in ("1", "true", "yes")


def memoization_enabled() -> bool:
    """Whether caches currently store and serve entries."""
    return _enabled


def set_enabled(on: bool) -> None:
    """Globally enable/disable all caches (lookups miss, stores drop)."""
    global _enabled
    _enabled = bool(on)


@contextmanager
def disabled() -> Iterator[None]:
    """Scope with memoization off -- the cold-path reference for
    equivalence tests.  Existing entries are kept (and ignored)."""
    previous = _enabled
    set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


class CostCache:
    """One bounded LRU cache with hit/miss/eviction counters."""

    __slots__ = (
        "name", "maxsize", "hits", "misses", "evictions", "_data",
        "_pending_verify", "__weakref__",
    )

    def __init__(self, name: str, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Keys whose next put() is a sampled audit recompute to compare
        #: against the cached entry (see repro.audit memo-equivalence).
        self._pending_verify: set = set()
        _REGISTRY.add(self)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or None on a miss (counted).

        With auditing enabled (``REPRO_AUDIT=sample|strict``), a seeded
        fraction of hits is deliberately reported as a miss: the caller
        recomputes, and the following :meth:`put` compares the fresh
        value against the cached one (memo-equivalence check).
        """
        if not _enabled:
            return None
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return None
        auditor = get_auditor()
        if auditor is not None and auditor.should_verify_memo():
            self._pending_verify.add(key)
            self.misses += 1
            return None
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` (must not be None), evicting the LRU entry
        when full."""
        if not _enabled:
            return
        data = self._data
        if self._pending_verify and key in self._pending_verify:
            self._pending_verify.discard(key)
            auditor = get_auditor()
            if auditor is not None and key in data:
                auditor.on_memo_result(self.name, key, data[key], value)
        if key in data:
            data.move_to_end(key)
            data[key] = value
            return
        if len(data) >= self.maxsize:
            data.popitem(last=False)
            self.evictions += 1
        data[key] = value

    def __del__(self, _retired=_RETIRED) -> None:
        # The default argument keeps the tally reachable at shutdown.
        if self.hits or self.misses or self.evictions:
            tally = _retired.setdefault(
                self.name, {"hits": 0, "misses": 0, "evictions": 0}
            )
            tally["hits"] += self.hits
            tally["misses"] += self.misses
            tally["evictions"] += self.evictions

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._data.clear()
        self._pending_verify.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        """This cache's counters as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._data),
            "maxsize": self.maxsize,
        }

    def __repr__(self) -> str:
        return (
            f"CostCache({self.name!r}, {len(self._data)}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


# -- registry-wide views -------------------------------------------------
def iter_caches() -> List[CostCache]:
    """All live caches, sorted by name (ties broken arbitrarily)."""
    return sorted(_REGISTRY, key=lambda cache: cache.name)


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Aggregated counters per cache name, in sorted-name order.

    Hits, misses and evictions include caches that were garbage-
    collected since the last :func:`clear_caches`; ``entries`` and
    ``caches`` count live caches only.
    """
    def entry_for(name: str) -> Dict[str, int]:
        return merged.setdefault(
            name, {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "caches": 0}
        )

    merged: Dict[str, Dict[str, int]] = {}
    # Holding every live cache keeps any of them from retiring (and
    # being counted twice) before the tally below is read.
    caches = iter_caches()
    for cache in caches:
        entry = entry_for(cache.name)
        entry["hits"] += cache.hits
        entry["misses"] += cache.misses
        entry["evictions"] += cache.evictions
        entry["entries"] += len(cache)
        entry["caches"] += 1
    for name, tally in _RETIRED.items():
        entry = entry_for(name)
        for field, value in tally.items():
            entry[field] += value
    return dict(sorted(merged.items()))


def clear_caches(name: Optional[str] = None) -> int:
    """Clear every cache (or only those named ``name``); returns how
    many caches were cleared."""
    cleared = 0
    if name is None:
        _RETIRED.clear()
    else:
        _RETIRED.pop(name, None)
    for cache in iter_caches():
        if name is None or cache.name == name:
            cache.clear()
            cleared += 1
    return cleared


def render_stats() -> str:
    """Fixed-format text table of the aggregated cache counters."""
    stats = cache_stats()
    if not stats:
        return "  (no cost-model caches created)"
    lines = []
    for name, entry in stats.items():
        total = entry["hits"] + entry["misses"]
        rate = entry["hits"] / total if total else 0.0
        lines.append(
            f"  {name:<32s} {entry['hits']:>9d} hits {entry['misses']:>8d} misses "
            f"({rate:>5.1%}) {entry['evictions']:>6d} evicted {entry['entries']:>6d} entries"
        )
    return "\n".join(lines)


def publish_metrics(registry) -> None:
    """Export the aggregated counters into a
    :class:`~repro.obs.metrics.MetricsRegistry` as ``memo.*`` metrics.

    Counters are monotone, so repeated publishes add only the delta
    since the previous publish (idempotent when nothing changed).
    """
    for name, entry in cache_stats().items():
        for field in ("hits", "misses", "evictions"):
            counter = registry.counter(f"memo.{name}.{field}")
            delta = entry[field] - counter.value
            if delta > 0:
                counter.inc(delta)
        registry.gauge(f"memo.{name}.entries").set(entry["entries"])
