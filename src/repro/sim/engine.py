"""Core discrete-event simulation engine.

Time is measured in integer (or float) nanoseconds.  A simulation
*process* is a generator; each value it yields tells the engine when to
resume it:

* a non-negative number — resume after that many nanoseconds,
* a :class:`Delay` — the explicit form of the above,
* an :class:`Event` — resume when the event is triggered; the value the
  event was triggered with becomes the value of the ``yield`` expression,
* a :class:`Process` — resume when that process finishes (join); the
  process's return value becomes the value of the ``yield`` expression,
* an :class:`AllOf` / :class:`AnyOf` — combinators over the above.

Processes may raise :class:`Interrupted` at a yield point if another
process calls :meth:`Process.interrupt`; this powers the halt-resume
wavefront model.

Internals are event-driven and allocation-lean: combinators register
direct callbacks on their children instead of spawning one watcher
process per item, waiter bookkeeping is O(1) amortised (tombstones plus
periodic compaction), and :meth:`Simulator.call_later` returns a handle
whose cancellation leaves a tombstone that never advances the clock, so
pollers can sleep until a state change instead of ticking.  A failed
child event (:meth:`Event.fail`) propagates its exception to processes
waiting on an enclosing ``AllOf``/``AnyOf`` rather than crashing the
simulation driver.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "AllOf",
    "AnyOf",
    "Delay",
    "Event",
    "Interrupted",
    "Process",
    "SimulationError",
    "Simulator",
]


class SimulationError(RuntimeError):
    """Raised for structural misuse of the engine (not model errors)."""


class Interrupted(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class Delay:
    """Explicit request to sleep for ``duration`` nanoseconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative delay: {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Delay({self.duration})"


class Event:
    """One-shot synchronisation event.

    An event starts un-triggered.  Processes that yield it are suspended
    until :meth:`succeed` (or :meth:`fail`) is called, at which point all
    waiters resume with the trigger value.  Triggering twice is an error;
    yielding an already-triggered event resumes immediately.

    Besides process waiters, an event carries lightweight *callbacks*
    (:meth:`_add_callback`) invoked synchronously at trigger time — the
    mechanism combinators and resource wrappers use to avoid spawning a
    watcher process per watched item.
    """

    __slots__ = ("sim", "_value", "_exc", "triggered", "_waiters", "_callbacks", "_ndead", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.triggered = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._waiters: List[Optional["Process"]] = []
        self._callbacks: List[Callable[[Any, Optional[BaseException]], None]] = []
        self._ndead = 0

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            self._ndead = 0
            schedule = self.sim._schedule
            for proc in waiters:
                if proc is not None:
                    schedule(0, proc, value=value)
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(value, None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self._exc = exc
        waiters = self._waiters
        if waiters:
            self._waiters = []
            self._ndead = 0
            schedule = self.sim._schedule
            for proc in waiters:
                if proc is not None:
                    schedule(0, proc, exc=exc)
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                callback(None, exc)
        return self

    def _add_waiter(self, proc: "Process") -> None:
        if self.triggered:
            self.sim._schedule(0, proc, value=self._value, exc=self._exc)
        else:
            proc._wait_index = len(self._waiters)
            self._waiters.append(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        waiters = self._waiters
        index = proc._wait_index
        if 0 <= index < len(waiters) and waiters[index] is proc:
            # O(1) tombstone; a process waits on at most one event, so the
            # recorded index is authoritative.
            waiters[index] = None
            self._ndead += 1
            if self._ndead > 16 and self._ndead * 2 >= len(waiters):
                self._compact()
            return
        try:  # pragma: no cover - defensive fallback
            waiters.remove(proc)
        except ValueError:
            pass

    def _compact(self) -> None:
        live = [proc for proc in self._waiters if proc is not None]
        for index, proc in enumerate(live):
            proc._wait_index = index
        self._waiters = live
        self._ndead = 0

    def _add_callback(self, callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        """Invoke ``callback(value, exc)`` at trigger time (immediately if
        the event already triggered)."""
        if self.triggered:
            callback(self._value, self._exc)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"Event({self.name!r}, {state})"


class _TimerHandle:
    """Heap-resident callback cell; ``fn = None`` marks cancellation."""

    __slots__ = ("fn",)

    def __init__(self, fn: Optional[Callable[[], None]]) -> None:
        self.fn = fn


class AllOf:
    """Combinator: resume when *all* of the given events/processes finish.

    The yield expression evaluates to a list of their values, in order.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any]) -> None:
        self.items = list(items)


class AnyOf:
    """Combinator: resume when *any one* of the given events/processes
    finishes.  The yield expression evaluates to ``(index, value)`` of the
    first completer (ties broken by order)."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any]) -> None:
        self.items = list(items)


class Process:
    """A running simulation process wrapping a generator."""

    __slots__ = (
        "sim",
        "generator",
        "name",
        "finished",
        "result",
        "_completion",
        "_waiting_on",
        "_wait_index",
    )

    def __init__(self, sim: "Simulator", generator: Generator[Any, Any, Any], name: str = "") -> None:
        self.sim = sim
        self.generator: Generator[Any, Any, Any] = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self.result: Any = None
        self._completion = Event(sim, name=f"done:{self.name}")
        self._waiting_on: Optional[Event] = None
        self._wait_index = -1
        sim._live[self] = None

    @property
    def completion(self) -> Event:
        """Event triggered with the process's return value when it ends."""
        return self._completion

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its yield point."""
        if self.finished:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        self.sim._schedule(0, self, exc=Interrupted(cause))

    def _add_waiter(self, proc: "Process") -> None:
        self._completion._add_waiter(proc)

    def _discard_waiter(self, proc: "Process") -> None:
        self._completion._discard_waiter(proc)

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


class _Condition:
    """Internal helper joining AllOf/AnyOf children into one event.

    Registers a direct callback on each child instead of spawning a
    watcher process per item (the seed engine's approach), so an N-wide
    combinator costs N closure registrations rather than N processes,
    N generators, and N completion events.  A failing child fails the
    joined event, propagating the exception to the waiting process.
    """

    __slots__ = ("event", "mode", "values", "remaining")

    def __init__(self, sim: "Simulator", items: List[Any], mode: str) -> None:
        self.event = Event(sim, name=f"cond:{mode}")
        self.mode = mode
        self.values: List[Any] = [None] * len(items)
        self.remaining = len(items)
        for idx, item in enumerate(items):
            self._watch(sim, idx, item)

    def _watch(self, sim: "Simulator", idx: int, item: Any) -> None:
        def child_done(value: Any, exc: Optional[BaseException]) -> None:
            event = self.event
            if event.triggered:
                return
            if exc is not None:
                event.fail(exc)
                return
            self.values[idx] = value
            self.remaining -= 1
            if self.mode == "any":
                event.succeed((idx, value))
            elif self.remaining == 0:
                event.succeed(list(self.values))

        if isinstance(item, (int, float)):
            item = Delay(item)
        if isinstance(item, Delay):
            # Live no-op after the condition fires: popping the entry at
            # expiry still advances the clock, exactly as the seed
            # engine's sleeping watcher process did.
            sim.call_later(item.duration, lambda: child_done(None, None))
        elif isinstance(item, (Event, Process)):
            target = item if isinstance(item, Event) else item._completion
            target._add_callback(child_done)
        elif isinstance(item, (AllOf, AnyOf)):
            nested_mode = "all" if isinstance(item, AllOf) else "any"
            _Condition(sim, item.items, nested_mode).event._add_callback(child_done)
        else:
            raise SimulationError(f"condition item {item!r} is not waitable")


#: One scheduled heap entry: ``(when, seq, proc, value, exc)``.  For
#: process resumes ``proc`` is the process; for timer callbacks ``proc``
#: is ``None`` and ``value`` holds the :class:`_TimerHandle`.
HeapEntry = Tuple[float, int, Optional["Process"], Any, Optional[BaseException]]

#: A tie-break policy: given the simulator and the list of every heap
#: entry ready at the current minimum timestamp (in FIFO ``seq`` order),
#: return the index of the entry to pop next.  See
#: :attr:`Simulator.tie_break`.
TieBreak = Callable[["Simulator", List[HeapEntry]], int]


def is_live(entry: HeapEntry) -> bool:
    """Whether popping ``entry`` can change the simulation: the resume
    of an unfinished process, or a callback that was not cancelled.
    Tombstones and resumes of finished processes are inert."""
    _when, _seq, proc, value, _exc = entry
    if proc is not None:
        return not proc.finished
    return value.fn is not None


class Simulator:
    """The discrete-event simulator: clock + event heap + process driver."""

    __slots__ = ("now", "_heap", "_seq", "tie_break", "_live")

    def __init__(self) -> None:
        self.now: float = 0
        self._heap: List[HeapEntry] = []
        self._seq = 0
        #: Every process that has not finished, in spawn order: what
        #: :meth:`close` ends.
        self._live: Dict[Process, None] = {}
        #: Controllable-scheduler hook (``repro.modelcheck``).  When
        #: ``None`` — always, outside model checking — ``_step`` pops the
        #: heap directly and behaviour is bit-identical to the historical
        #: FIFO order.  When set, every pop routes through
        #: :meth:`_pop_tie_break`, which hands the policy all entries
        #: sharing the minimum timestamp and pops the one it picks.
        self.tie_break: Optional[TieBreak] = None

    # -- scheduling ----------------------------------------------------

    def _schedule(
        self,
        delay: float,
        proc: Process,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, proc, value, exc))

    def call_later(self, delay: float, fn: Callable[[], None]) -> _TimerHandle:
        """Run ``fn()`` after ``delay`` ns without spawning a process.

        Returns a handle whose ``fn`` may be set to ``None`` to cancel;
        cancelled entries neither run nor advance the clock when popped.
        """
        handle = _TimerHandle(fn)
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, None, handle, None))
        return handle

    def call_at(self, when: float, fn: Callable[[], None]) -> _TimerHandle:
        """Run ``fn()`` at absolute time ``when`` (clamped to now).

        Unlike ``call_later(when - now, fn)`` this is exact: the heap
        stores absolute times, so no floating-point round-trip through a
        relative delay occurs.  Pollers converted to event waits use it
        to land back on their historical observation grid bit-exactly.
        """
        if when < self.now:
            when = self.now
        handle = _TimerHandle(fn)
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, None, handle, None))
        return handle

    def wake_at(self, when: float, name: str = "wake-at") -> Event:
        """An event that triggers at absolute simulated time ``when``."""
        event = Event(self, name=name)

        def fire() -> None:
            event.succeed()

        self.call_at(when, fire)
        return event

    def process(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Spawn ``generator`` as a new process starting at the current time."""
        proc = Process(self, generator, name=name)
        self._schedule(0, proc)
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, duration: float) -> Delay:
        return Delay(duration)

    # -- execution -----------------------------------------------------

    def _step(self) -> None:
        if self.tie_break is None:
            when, _seq, proc, value, exc = heapq.heappop(self._heap)
        else:
            when, _seq, proc, value, exc = self._pop_tie_break()
        if proc is None:
            # Callback entry.  A cancelled one (fn is None) is a
            # tombstone: skipped without touching the clock.
            fn = value.fn
            if fn is not None:
                self.now = when
                fn()
            return
        if proc.finished:
            return
        self.now = when
        proc._waiting_on = None
        try:
            if exc is not None:
                target = proc.generator.throw(exc)
            else:
                target = proc.generator.send(value)
        except StopIteration as stop:
            self._finish(proc, stop.value)
            return
        except Interrupted:
            # Interrupt not caught by the process body: treat as clean stop.
            self._finish(proc, None)
            return
        cls = target.__class__
        if cls is float or cls is int:
            # The hot path: a plain numeric delay, scheduled directly.
            self._seq += 1
            heapq.heappush(self._heap, (self.now + target, self._seq, proc, None, None))
            return
        self._wait_on(proc, target)

    def _pop_tie_break(self) -> HeapEntry:
        """Pop under the :attr:`tie_break` policy.

        Gathers every heap entry sharing the minimum timestamp (they
        come off the heap in FIFO ``seq`` order), asks the policy which
        one runs next, and pushes the rest back.  Pushed-back entries
        re-enter the heap with their original tuples, so the relative
        order among the survivors is preserved and a policy that always
        answers ``0`` reproduces the plain ``heappop`` sequence exactly.
        """
        heap = self._heap
        first = heapq.heappop(heap)
        if not heap or heap[0][0] != first[0]:
            ready = [first]
        else:
            when = first[0]
            ready = [first]
            while heap and heap[0][0] == when:
                ready.append(heapq.heappop(heap))
        policy = self.tie_break
        assert policy is not None
        choice = policy(self, ready)
        if not 0 <= choice < len(ready):
            raise SimulationError(
                f"tie_break policy chose entry {choice} of {len(ready)} ready"
            )
        entry = ready.pop(choice)
        for other in ready:
            heapq.heappush(heap, other)
        return entry

    def _finish(self, proc: Process, result: Any) -> None:
        del self._live[proc]
        proc.finished = True
        proc.result = result
        if not proc._completion.triggered:
            proc._completion.succeed(result)

    def _wait_on(self, proc: Process, target: Any) -> None:
        """Suspend ``proc`` on anything but a plain ``int``/``float``
        delay, which :meth:`_step` schedules itself."""
        if target.__class__ is Delay:
            self._schedule(target.duration, proc)
        elif isinstance(target, Event):
            proc._waiting_on = target
            target._add_waiter(proc)
        elif isinstance(target, Process):
            proc._waiting_on = target._completion
            target._add_waiter(proc)
        elif isinstance(target, AllOf):
            cond = _Condition(self, target.items, mode="all")
            proc._waiting_on = cond.event
            cond.event._add_waiter(proc)
        elif isinstance(target, AnyOf):
            cond = _Condition(self, target.items, mode="any")
            proc._waiting_on = cond.event
            cond.event._add_waiter(proc)
        elif isinstance(target, (int, float)):
            # Numeric subclasses (e.g. bool) take the slow path.
            self._schedule(target, proc)
        else:
            raise SimulationError(f"process {proc.name!r} yielded {target!r}")

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue; returns the final simulation time.

        With ``until`` set, stops once the clock would pass that time
        (the clock is left at ``until``).
        """
        heap = self._heap
        step = self._step
        if until is None:
            while heap:
                step()
            return self.now
        while heap:
            if heap[0][0] > until:
                self.now = until
                return self.now
            step()
        if until > self.now:
            self.now = until
        return self.now

    def run_within(self, deadline: float) -> bool:
        """Drain the event queue, but run nothing timed after ``deadline``.

        Returns ``True`` once the queue is empty, with the clock where
        :meth:`run` leaves it, and ``False`` when live work (an entry
        :func:`is_live` accepts) remains past ``deadline``, with the
        clock at the last entry run.  Unlike ``run(until=...)`` it never
        moves the clock to the deadline itself.
        """
        heap = self._heap
        step = self._step
        while heap:
            if heap[0][0] > deadline and any(map(is_live, heap)):
                return False
            step()
        return True

    def run_process(self, generator: Generator[Any, Any, Any], name: str = "") -> Any:
        """Convenience: spawn ``generator``, run to completion, return its value."""
        proc = self.process(generator, name=name)
        self.run()
        if not proc.finished:
            raise SimulationError(f"process {proc.name!r} deadlocked")
        return proc.result

    def close(self) -> None:
        """End the run for good: close every unfinished process's
        generator, cancel every pending timer and empty the heap.

        A process parked on an event and the event form a reference
        cycle, and so does a timer kept by the callback it runs; after
        ``close`` neither holds anything.  Closing a generator runs its
        ``finally`` blocks, which may wake waiters or spawn processes:
        those are closed too.  The clock does not move.
        """
        live = self._live
        while live:
            procs = list(live)
            live.clear()
            for proc in procs:
                waiting = proc._waiting_on
                if waiting is not None:
                    waiting._discard_waiter(proc)
                    proc._waiting_on = None
                proc.generator.close()
        heap = self._heap
        for _when, _seq, proc, value, _exc in heap:
            if proc is None:
                value.fn = None
        heap.clear()
