"""Set-associative cache model with LRU replacement.

Used for the GPU L2 (shared, CPU-coherent) and per-CU L1s
(non-coherent).  Only line presence is modelled — data lives in the
functional Python layer — which is all the paper's effects need: the
Figure 9 polling experiment is purely about whether the polled working
set of syscall-slot lines fits in the L2.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, List

from repro.machine import CACHELINE_BYTES
from repro.probes.tracepoints import NULL_TRACEPOINT


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


def line_of(addr: int, line_bytes: int = CACHELINE_BYTES) -> int:
    """Cacheline index containing byte address ``addr``."""
    if addr < 0:
        raise ValueError(f"negative address: {addr}")
    return addr // line_bytes


def lines_covering(addr: int, size: int, line_bytes: int = CACHELINE_BYTES) -> List[int]:
    """All cacheline indices touched by [addr, addr+size)."""
    if size <= 0:
        return []
    first = line_of(addr, line_bytes)
    last = line_of(addr + size - 1, line_bytes)
    return list(range(first, last + 1))


class Cache:
    """LRU set-associative cache over cacheline indices.

    ``access(line)`` returns True on hit and installs the line on miss
    (returning False).  ``flush``/``invalidate`` support the manual
    software-coherence path the paper uses for syscall buffers.

    ``tp_hit``/``tp_miss`` are hit/miss tracepoints; the class-level
    default is the inert null tracepoint so standalone caches pay only
    one attribute check per access.  :class:`~repro.memory.system.
    MemorySystem` rebinds them per level (``mem.l1.*`` / ``mem.l2.*``).
    """

    tp_hit = NULL_TRACEPOINT
    tp_miss = NULL_TRACEPOINT

    def __init__(
        self,
        total_lines: int,
        associativity: int = 8,
        line_bytes: int = CACHELINE_BYTES,
        name: str = "",
    ):
        if total_lines < 1:
            raise ValueError("cache must have at least one line")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        associativity = min(associativity, total_lines)
        if total_lines % associativity:
            raise ValueError(
                f"total_lines {total_lines} not divisible by associativity {associativity}"
            )
        self.name = name
        self.total_lines = total_lines
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = total_lines // associativity
        # A set's LRU order is built on its first lookup.
        self._sets: DefaultDict[int, OrderedDict] = defaultdict(OrderedDict)
        self.stats = CacheStats()

    def contains(self, line: int) -> bool:
        return line in self._sets[line % self.num_sets]

    def access(self, line: int) -> bool:
        """Touch ``line``; return True on hit, install + evict on miss."""
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.stats.hits += 1
            if self.tp_hit.enabled:
                self.tp_hit.fire(line)
            return True
        self.stats.misses += 1
        if self.tp_miss.enabled:
            self.tp_miss.fire(line)
        if len(cache_set) >= self.associativity:
            cache_set.popitem(last=False)
        cache_set[line] = True
        return False

    def access_bytes(self, addr: int, size: int) -> int:
        """Touch every line of a byte range; return the number of misses."""
        misses = 0
        for line in lines_covering(addr, size, self.line_bytes):
            if not self.access(line):
                misses += 1
        return misses

    def invalidate(self, line: int) -> bool:
        """Drop one line (returns whether it was present)."""
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            del cache_set[line]
            self.stats.invalidations += 1
            return True
        return False

    def flush_range(self, addr: int, size: int) -> int:
        """Invalidate all lines of a byte range (software coherence)."""
        dropped = 0
        for line in lines_covering(addr, size, self.line_bytes):
            if self.invalidate(line):
                dropped += 1
        return dropped

    def flush_all(self) -> None:
        self._sets.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets.values())
