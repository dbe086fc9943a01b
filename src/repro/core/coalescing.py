"""Interrupt coalescing (paper Section V-B / Figure 10).

GENESYS "implements coalescing by waiting for a predetermined amount of
time in the interrupt handler before enqueueing a task to process a
system call"; two knobs — a time window and a maximum batch size — are
exposed through sysfs on the real system and through
:class:`CoalescingConfig` here.  Coalescing trades latency for
throughput and implicitly serialises the bundled calls on one worker.

Both are :class:`CoalescingConfig` fields, which the sysfs
``/sys/genesys/coalescing_*`` files write.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Simulator


class CoalescingConfig:
    """window_ns == 0 disables coalescing (every request is its own task)."""

    __slots__ = ("window_ns", "max_batch")

    def __init__(self, window_ns: float = 0.0, max_batch: int = 1) -> None:
        if window_ns < 0:
            raise ValueError("window must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window_ns = window_ns
        self.max_batch = max_batch

    @property
    def enabled(self) -> bool:
        return self.window_ns > 0 and self.max_batch > 1

    def __repr__(self) -> str:
        return f"CoalescingConfig(window={self.window_ns}ns, max_batch={self.max_batch})"


class Coalescer:
    """Accumulates interrupt payloads into bundles and flushes them.

    A bundle flushes when the time window since its first member expires
    or when it reaches the batch limit, whichever is first.  Both are
    fixed when a bundle opens, so a knob write lands at the next bundle.
    """

    def __init__(
        self,
        sim: Simulator,
        config: CoalescingConfig,
        flush_fn: Callable[[List[Any]], None],
        probes: Optional[ProbeRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.flush_fn = flush_fn
        self._bundle: List[Any] = []
        self._bundle_seq = 0
        self._bundle_batch = config.max_batch
        self.bundles_flushed = 0
        self.requests_seen = 0
        registry = probes if probes is not None else ProbeRegistry(sim)
        self.tp_add = registry.tracepoint(
            "coalesce.add",
            ("payload",),
            "an interrupt payload reached the coalescer (bottom half ran)",
        )
        self.tp_flush = registry.tracepoint(
            "coalesce.flush",
            ("batch_size", "payloads"),
            "a coalesced bundle became one task",
        )

    def add(self, payload: Any) -> None:
        """Add one interrupt payload (called from the handler)."""
        self.requests_seen += 1
        if self.tp_add.enabled:
            self.tp_add.fire(payload)
        if not self._bundle:
            # Opening a (potential) bundle: decide its window and batch.
            window = self.config.window_ns
            batch = self.config.max_batch
            if not (window > 0 and batch > 1):
                # Coalescing disabled: every request is its own task.
                self.flush_fn([payload])
                self.bundles_flushed += 1
                if self.tp_flush.enabled:
                    self.tp_flush.fire(1, (payload,))
                return
            self._bundle_batch = batch
            self._bundle.append(payload)
            self.sim.process(
                self._window_timer(self._bundle_seq, window), name="coalesce-timer"
            )
        else:
            self._bundle.append(payload)
        if len(self._bundle) >= self._bundle_batch:
            self._flush()

    def _window_timer(self, seq: int, window_ns: float) -> Generator[Any, Any, None]:
        yield window_ns
        # Only flush if this timer's bundle is still the open one.
        if seq == self._bundle_seq and self._bundle:
            self._flush()

    def _flush(self) -> None:
        bundle, self._bundle = self._bundle, []
        self._bundle_seq += 1
        self.bundles_flushed += 1
        if self.tp_flush.enabled:
            self.tp_flush.fire(len(bundle), tuple(bundle))
        self.flush_fn(bundle)

    @property
    def mean_bundle_size(self) -> float:
        if not self.bundles_flushed:
            return 0.0
        return self.requests_seen / self.bundles_flushed
