"""Shared synchronisation resources built on the simulation engine.

Three primitives cover every contention point in the model:

* :class:`Resource` — a counted semaphore with FIFO queuing (CPU cores,
  CU wavefront slots, worker threads).
* :class:`Store` — an unbounded FIFO of items with blocking ``get``
  (kernel workqueues, NIC receive queues, signal queues).
* :class:`BandwidthResource` — a serialising channel where moving *B*
  bytes takes ``B / rate`` ns and transfers queue behind one another
  (DRAM, SSD, NIC links).  This is what creates the CPU/GPU memory
  contention of the paper's Figure 9 and the disk ceiling of Figure 14.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List

from repro.sim.engine import Event, Simulator


class Resource:
    """Counted FIFO semaphore.

    Usage inside a process::

        yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        """Return an event that triggers once a unit is granted."""
        event = self.sim.event(name=f"acq:{self.name}")
        if self.in_use < self.capacity and not self._queue:
            self.in_use += 1
            event.succeed()
        else:
            self._queue.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._queue:
            # Hand the unit straight to the next waiter.
            self._queue.popleft().succeed()
        else:
            self.in_use -= 1

    def using(self, duration: float) -> Generator[Any, Any, None]:
        """Process body: hold one unit for ``duration`` ns."""
        yield self.acquire()
        try:
            yield duration
        finally:
            self.release()


class Store:
    """Unbounded FIFO of items with blocking ``get``."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._watchers: List[Event] = []

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        if self._watchers:
            watchers, self._watchers = self._watchers, []
            for event in watchers:
                if not event.triggered:
                    event.succeed()

    def when_nonempty(self) -> Event:
        """Readiness event: fires when an item is (or becomes) available
        without consuming it.  Wakeups may be spurious if a competing
        getter takes the item first — callers must re-check, exactly as
        POSIX poll(2) allows."""
        event = self.sim.event(name=f"ready:{self.name}")
        if self._items:
            event.succeed()
        else:
            self._watchers.append(event)
        return event

    def get(self) -> Event:
        """Return an event triggering with the next item."""
        event = self.sim.event(name=f"get:{self.name}")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class BandwidthResource:
    """A serialising transfer channel with a fixed byte rate.

    ``transfer(nbytes)`` is a process body that completes after the
    request has waited for all previously queued transfers and then
    streamed at ``rate_bytes_per_ns``.  An optional per-transfer fixed
    latency models device setup cost.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bytes_per_ns: float,
        name: str = "",
        fixed_latency: float = 0.0,
    ) -> None:
        if rate_bytes_per_ns <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.rate = rate_bytes_per_ns
        self.fixed_latency = fixed_latency
        self.name = name
        self._gate = Resource(sim, 1, name=f"bw:{name}")

    def transfer_time(self, nbytes: int) -> float:
        return self.fixed_latency + nbytes / self.rate

    @property
    def queue_depth(self) -> int:
        """Transfers in service or waiting behind the channel gate."""
        return self._gate.in_use + len(self._gate._queue)

    def transfer(self, nbytes: int) -> Generator[Any, Any, None]:
        """Process body: move ``nbytes`` through the channel."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        yield self._gate.acquire()
        try:
            yield self.transfer_time(nbytes)
        finally:
            self._gate.release()
