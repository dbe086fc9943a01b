"""Kernel workqueue: deferred task execution on OS worker threads.

Section VI: "The interrupt handler creates a new kernel task and adds it
to Linux's work-queue.  At an expedient future point in time an OS
worker thread executes this task."  Tasks here are process bodies
(generators); a fixed pool of worker loops drains the queue, paying a
dispatch delay per task and competing for CPU cores through whatever
:class:`~repro.oskernel.cpu.CpuComplex` charges the task body makes.
Every task goes to one shared FIFO, and whichever worker is free takes
it.

Workers can also *misbehave* — deliberately, when a fault plan's
injector says so at pickup (stall for a while, or die outright) — and the
queue carries the recovery half: every submission is tracked as a
:class:`_TaskRecord`, and :meth:`check_stalled` (driven by the GENESYS
watchdog) requeues records that were picked up but never started and
respawns dead worker loops.  An epoch counter per record makes requeue
exactly-once: a stalled worker that wakes after its task was reassigned
observes the epoch bump and forfeits instead of running it a second
time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, List, Optional

from repro.machine import MachineConfig
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector


class DrainTimeout(RuntimeError):
    """A bounded drain expired with work still outstanding.

    ``stuck`` holds human-readable descriptions of what was still in
    flight when the deadline passed, so the exception is a diagnosis,
    not just a bang.
    """

    def __init__(self, message: str, stuck: Optional[List[str]] = None):
        self.stuck = list(stuck or [])
        if self.stuck:
            message = message + "\n  stuck: " + "\n  stuck: ".join(self.stuck)
        super().__init__(message)


class _TaskRecord:
    """One submitted task and its recovery bookkeeping."""

    __slots__ = (
        "index", "factory", "submitted_at", "picked_at", "worker",
        "started", "done", "epoch", "requeues",
    )

    def __init__(self, index: int, factory: Callable[[], Generator], now: float):
        self.index = index
        self.factory = factory
        self.submitted_at = now
        self.picked_at: Optional[float] = None
        self.worker: Optional[int] = None
        self.started = False
        self.done = False
        #: Bumped on every requeue; a pickup whose saved epoch no longer
        #: matches has been superseded and must forfeit.
        self.epoch = 0
        self.requeues = 0

    def __repr__(self) -> str:
        state = (
            "done" if self.done
            else "running" if self.started
            else f"picked@{self.picked_at:.0f}" if self.picked_at is not None
            else "queued"
        )
        return f"task#{self.index}({state}, worker={self.worker}, requeues={self.requeues})"


class WorkQueue:
    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        num_workers: int = 0,
        name: str = "kworker",
        probes: Optional[ProbeRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.name = name
        self.num_workers = num_workers or config.workqueue_workers
        self._tasks = Store(sim, name=f"wq:{name}")
        self.submitted = 0
        self.completed = 0
        self.forfeits = 0
        self.tasks_requeued = 0
        self.workers_killed = 0
        self.workers_respawned = 0
        self._idle_event: Optional[Event] = None
        self._inflight: dict = {}
        self._dead: set = set()
        registry = probes if probes is not None else ProbeRegistry(sim)
        self.probes = registry
        self.tp_enqueue = registry.tracepoint(
            "wq.enqueue",
            ("backlog", "task_index"),
            "task submitted; backlog after enqueue",
        )
        self.tp_dequeue = registry.tracepoint(
            "wq.dequeue", ("worker_id", "task_index"), "worker picked up a task"
        )
        self.tp_complete = registry.tracepoint(
            "wq.complete",
            ("worker_id", "service_ns", "task_index"),
            "task finished on a worker",
        )
        self.tp_depth = registry.tracepoint(
            "wq.depth",
            ("backlog",),
            "gauge: queue depth after an enqueue or a worker pickup",
        )
        self.tp_busy = registry.tracepoint(
            "wq.busy",
            ("busy", "workers"),
            "gauge: workers executing a task, out of the pool size",
        )
        self.tp_sojourn = registry.tracepoint(
            "wq.sojourn",
            ("sojourn_ns", "task_index"),
            "queue wait of a task, measured at worker pickup",
        )
        self._busy_workers = 0
        #: The plan's FaultInjector, asked per task pickup (kill or
        #: stall); None on a machine with no plan.
        self.faults: Optional[FaultInjector] = None
        self.tp_fault = registry.tracepoint(
            "fault.worker.injected",
            ("action", "worker_id", "task_index", "stall_ns"),
            "an injected worker fault was applied (stall or kill)",
        )
        self.tp_requeue = registry.tracepoint(
            "recover.requeue",
            ("task_index", "worker_id"),
            "watchdog requeued a picked-but-never-started task",
        )
        self.tp_respawn = registry.tracepoint(
            "recover.respawn",
            ("worker_id",),
            "watchdog respawned a dead worker loop",
        )
        self.tp_forfeit = registry.tracepoint(
            "recover.forfeit",
            ("task_index", "worker_id"),
            "a stalled worker woke to find its task reassigned and forfeited",
        )
        for i in range(self.num_workers):
            sim.process(self._worker_loop(i), name=f"{name}/{i}")

    @property
    def backlog(self) -> int:
        return len(self._tasks)

    @property
    def outstanding(self) -> int:
        return self.submitted - self.completed

    def submit(self, task_factory: Callable[[], Generator]) -> None:
        """Enqueue a task; ``task_factory()`` is called on a worker thread."""
        index = self.submitted
        self.submitted += 1
        record = _TaskRecord(index, task_factory, self.sim.now)
        self._inflight[index] = record
        self._tasks.put(record)
        if self.tp_enqueue.enabled:
            self.tp_enqueue.fire(self.backlog, index)
        if self.tp_depth.enabled:
            self.tp_depth.fire(self.backlog)

    def _worker_loop(self, worker_id: int) -> Generator:
        tasks = self._tasks
        while True:
            record = yield tasks.get()
            alive = yield from self._run_task(worker_id, record)
            if not alive:
                return

    def _run_task(self, worker_id: int, record: _TaskRecord) -> Generator:
        """Run one picked-up task; returns False if the worker died."""
        record.picked_at = self.sim.now
        record.worker = worker_id
        epoch = record.epoch
        if self.tp_sojourn.enabled:
            self.tp_sojourn.fire(self.sim.now - record.submitted_at, record.index)
        observing = self.tp_dequeue.enabled or self.tp_complete.enabled
        if observing:
            picked_at = self.sim.now
            if self.tp_dequeue.enabled:
                self.tp_dequeue.fire(worker_id, record.index)
        if self.tp_depth.enabled:
            self.tp_depth.fire(self.backlog)
        self._busy_workers += 1
        if self.tp_busy.enabled:
            self.tp_busy.fire(self._busy_workers, self.num_workers)
        try:
            alive = yield from self._execute(worker_id, record, epoch, observing)
        finally:
            self._busy_workers -= 1
            if self.tp_busy.enabled:
                self.tp_busy.fire(self._busy_workers, self.num_workers)
        return alive

    def _execute(
        self, worker_id: int, record: _TaskRecord, epoch: int, observing: bool
    ) -> Generator:
        """The fault/forfeit/dispatch/body half of one task execution."""
        if observing:
            picked_at = record.picked_at
        faults = self.faults
        verdict = faults.decide("worker") if faults is not None else None
        if verdict is not None:
            action, stall_ns = verdict
            if self.tp_fault.enabled:
                self.tp_fault.fire(action, worker_id, record.index, stall_ns)
            if action == "kill":
                # The worker dies holding an unstarted task; the GENESYS
                # watchdog requeues the record and respawns the loop.
                self.workers_killed += 1
                self._dead.add(worker_id)
                return False
            yield stall_ns
            if record.epoch != epoch:
                # The watchdog gave up on us and reassigned the task.
                self._forfeit(record, worker_id)
                return True
        yield self.config.workqueue_dispatch_ns
        if record.epoch != epoch:
            self._forfeit(record, worker_id)
            return True
        record.started = True
        yield from record.factory()
        record.done = True
        self._inflight.pop(record.index, None)
        self.completed += 1
        if observing and self.tp_complete.enabled:
            self.tp_complete.fire(worker_id, self.sim.now - picked_at, record.index)
        if self.submitted == self.completed and self._idle_event is not None:
            event, self._idle_event = self._idle_event, None
            event.succeed()
        return True

    def _forfeit(self, record: _TaskRecord, worker_id: int) -> None:
        self.forfeits += 1
        if self.tp_forfeit.enabled:
            self.tp_forfeit.fire(record.index, worker_id)

    # -- watchdog services -------------------------------------------------

    def check_stalled(self, timeout_ns: float) -> int:
        """Recovery sweep: requeue tasks stuck at a worker, revive workers.

        A record counts as stuck when a worker picked it up at least
        ``timeout_ns`` ago and never started it (a started task is the
        task body's problem, not the queue's).  Requeueing bumps the
        record's epoch so the original pickup — if its worker is merely
        stalled rather than dead — forfeits instead of double-running.
        Dead worker loops are respawned under their old identity.
        Returns the number of requeued tasks.
        """
        now = self.sim.now
        requeued = 0
        if timeout_ns > 0:
            for record in list(self._inflight.values()):
                if (
                    record.picked_at is not None
                    and not record.started
                    and now - record.picked_at >= timeout_ns
                ):
                    stale_worker = record.worker
                    record.epoch += 1
                    record.requeues += 1
                    record.picked_at = None
                    record.worker = None
                    self.tasks_requeued += 1
                    requeued += 1
                    self._tasks.put(record)
                    if self.tp_requeue.enabled:
                        self.tp_requeue.fire(record.index, stale_worker)
        for worker_id in sorted(self._dead):
            self._dead.discard(worker_id)
            self.sim.process(
                self._worker_loop(worker_id), name=f"{self.name}/{worker_id}"
            )
            self.workers_respawned += 1
            if self.tp_respawn.enabled:
                self.tp_respawn.fire(worker_id)
        return requeued

    def close(self) -> None:
        """Drop every unfinished task: its factory closes over whoever
        submitted it, which holds this queue.  Counters stay readable."""
        self._inflight.clear()
        self._tasks._items.clear()

    def stuck_report(self) -> List[str]:
        """Descriptions of every unfinished task, for DrainTimeout."""
        return [repr(record) for record in self._inflight.values()]

    # -- idle waiting -------------------------------------------------------

    def when_idle(self) -> Event:
        """An event that fires when ``outstanding`` (> 0) next reaches
        zero: shared by all waiters and fired by the worker that
        completes the last task."""
        if self._idle_event is None:
            self._idle_event = self.sim.event(name=f"wq:{self.name}-idle")
        return self._idle_event
