"""Mergeable Misra–Gries heavy-hitters sketch (paper §2.3).

A Misra–Gries sketch with ``capacity`` counters processes a stream of
items and maintains at most ``capacity`` (item, count) pairs. For a
stream of total weight ``N`` it guarantees, for every item ``a`` with
true frequency ``f_a``::

    f_a - N / (capacity + 1)  <=  estimate(a)  <=  f_a

Agarwal et al. (2013) showed the sketch is *mergeable*: merging two
sketches built on streams X1 and X2 yields a sketch with the same
guarantee as one built directly on the concatenation X1 ++ X2. SOFA
relies on this to combine per-center sketches when centers are merged
during restarts and in the postprocessing step — and we additionally
rely on it to merge per-partition sketches in the distributed Spark
implementation.

Counts are floats because SOFA's restart mechanism re-inserts centers
with accumulated integer weights; floats keep the API uniform.
"""
from __future__ import annotations

from typing import Dict, Iterable, Tuple


class MisraGries:
    """Fixed-capacity Misra–Gries frequency sketch over hashable items."""

    __slots__ = ("capacity", "counters", "total")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.counters: Dict[int, float] = {}
        self.total = 0.0  # total stream weight processed (N)

    def add(self, item: int, weight: float = 1.0) -> None:
        """Process one stream item with the given weight."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.total += weight
        c = self.counters
        if item in c:
            c[item] += weight
            return
        if len(c) < self.capacity:
            c[item] = weight
            return
        # Decrement-all step, generalized to weighted items: subtract the
        # largest amount that keeps every counter non-negative and consumes
        # at most `weight` of the new item.
        dec = min(weight, min(c.values()))
        for k in list(c):
            c[k] -= dec
            if c[k] <= 0:
                del c[k]
        rem = weight - dec
        if rem > 0 and len(c) < self.capacity:
            c[item] = rem

    def add_all(self, items: Iterable[int], weight: float = 1.0) -> None:
        for it in items:
            self.add(it, weight)

    def estimate(self, item: int) -> float:
        """Lower-bound estimate of the item's frequency (0 if evicted)."""
        return self.counters.get(item, 0.0)

    def error_bound(self) -> float:
        """Maximum undercount: N / (capacity + 1)."""
        return self.total / (self.capacity + 1)

    def items_at_least(self, threshold: float) -> list[Tuple[int, float]]:
        """All (item, estimate) with estimate >= threshold, sorted by item."""
        return sorted((k, v) for k, v in self.counters.items() if v >= threshold)

    def merge(self, other: "MisraGries") -> "MisraGries":
        """Merge per Agarwal et al.: add counters, then trim to capacity
        by subtracting the (capacity+1)-largest count from every counter.

        Returns ``self`` (mutated); ``other`` is left untouched. The result
        keeps ``self``'s capacity.
        """
        c = self.counters
        for k, v in other.counters.items():
            c[k] = c.get(k, 0.0) + v
        self.total += other.total
        if len(c) > self.capacity:
            vals = sorted(c.values(), reverse=True)
            cut = vals[self.capacity]  # (capacity+1)-th largest
            for k in list(c):
                c[k] -= cut
                if c[k] <= 0:
                    del c[k]
        return self

    def copy(self) -> "MisraGries":
        out = MisraGries(self.capacity)
        out.counters = dict(self.counters)
        out.total = self.total
        return out

    def __len__(self) -> int:
        return len(self.counters)

    def __repr__(self) -> str:
        return f"MisraGries(capacity={self.capacity}, n_counters={len(self.counters)}, total={self.total})"
