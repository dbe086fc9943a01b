"""GSan: a vector-clock happens-before sanitizer for the slot protocol.

The paper's design rests on a lock-free state machine walked by two
agents over weakly-ordered shared memory (Section VI / Figure 6):

    FREE -> POPULATING -> READY -> PROCESSING -> FINISHED -> FREE

plus the PR-4 recovery edges (watchdog reclaim of stuck READY /
PROCESSING slots, stale-finish rejection).  The probes/tracing layers
*observe* that walk; GSan *checks* it.  It attaches pure observers to
the existing tracepoint stream and verifies, per slot / invocation /
workqueue task / wavefront:

* every ``slot.transition`` is a legal edge driven by its owning agent
  (GPU lane, CPU worker, or watchdog), with no skipped states;
* release/acquire ordering: the CPU never reads a slot's payload
  before the GPU published READY, the GPU never consumes a result
  before FINISHED was published, and a caller never resumes before a
  completion exists — checked with per-agent vector clocks, so a
  reordered (replayed) stream is caught even when per-slot state
  tracking alone would not see it;
* exactly-once completion: each invocation gets exactly one of
  ``syscall.complete`` / ``recover.slot_reclaim``;
* no lost wakeups: halt/resume alternate per wavefront and every
  blocking completion is followed by a resume;
* workqueue lifecycle: enqueue before pickup before complete, pickup
  again only after a watchdog requeue, forfeit only after an epoch
  bump, at most one complete per task.

GSan is an *observer*, never a policy: it sees fire arguments and the
registry clock only, so attaching it cannot perturb the simulation —
tier-1's neutrality oracle runs every experiment under ``--attach
gsan`` and asserts the rendered output is byte-identical to the bare
run.

A ``slot.protocol_error`` for a *stale finish* is the defended
recovery race working as designed (the write was refused) and is
counted, not flagged; every other protocol error is a violation.

Violations render as annotated event timelines: the scoped event
history with the offending event marked, plus the vector clocks at
the moment of detection.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.probes.tracepoints import ProbeRegistry

#: Schema version of :meth:`GSan.snapshot`.
GSAN_SNAPSHOT_SCHEMA = 1

#: The agents whose vector-clock components GSan tracks.
AGENTS = ("gpu", "cpu", "watchdog")

#: Legal slot edges -> the set of agents allowed to drive them.
#: The first six rows are Figure 6; the watchdog rows are the PR-4
#: reclaim edges (blocking -> FINISHED, non-blocking -> FREE).
SLOT_EDGES: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("free", "populating"): ("gpu",),
    ("populating", "ready"): ("gpu",),
    ("ready", "processing"): ("cpu",),
    ("processing", "finished"): ("cpu", "watchdog"),
    ("processing", "free"): ("cpu", "watchdog"),
    ("finished", "free"): ("gpu",),
    ("ready", "finished"): ("watchdog",),
    ("ready", "free"): ("watchdog",),
}

#: Which agent each tracepoint's events are attributed to (events that
#: carry an explicit actor argument override this).
_EVENT_AGENT = {
    "syscall.claim": "gpu",
    "syscall.submit": "gpu",
    "syscall.irq": "gpu",
    "syscall.resume": "gpu",
    "syscall.retry": "gpu",
    "wavefront.halt": "gpu",
    "wavefront.resume": "gpu",
    "irq.raised": "gpu",
    "fault.irq.injected": "gpu",
    "syscall.dispatch": "cpu",
    "syscall.complete": "cpu",
    "scan.enqueue": "cpu",
    "scan.start": "cpu",
    "wq.enqueue": "cpu",
    "wq.dequeue": "cpu",
    "wq.complete": "cpu",
    "irq.serviced": "cpu",
    "irq.unhandled": "cpu",
    "fault.errno.injected": "cpu",
    "fault.slot.injected": "cpu",
    "fault.worker.injected": "cpu",
    "recover.requeue": "watchdog",
    "recover.forfeit": "cpu",
    "recover.respawn": "watchdog",
    "recover.degraded": "watchdog",
    "recover.slot_reclaim": "watchdog",
    "slot.transition": None,  # actor argument
    "slot.protocol_error": None,  # actor argument
}

#: Pure-telemetry gauges: events that sample a derived quantity (queue
#: depth, occupancy, sojourn time) and carry no protocol identity.  No
#: GSan rule or end-state invariant reads them, so in the model
#: checker's independence relation a step firing only these (plus
#: scoped events) still has a fully-known footprint — they must not
#: degrade a step to "unknown".
SCOPE_NEUTRAL = frozenset(
    {
        "fs.pagecache.resident",
        "gpu.lanes.runnable",
        "gpu.wf.occupancy",
        "net.backlog",
        "net.sojourn",
        "slot.occupancy",
        "syscall.inflight",
        "wq.busy",
        "wq.depth",
        "wq.sojourn",
    }
)


def event_scopes(name: str, values: Tuple[Any, ...]) -> List[str]:
    """The protocol scopes one tracepoint event touches.

    This is GSan's timeline attribution (``slot:N`` / ``inv:N`` /
    ``task:N`` / ``scan:N`` / ``wf:N``), exported at module level so
    :mod:`repro.modelcheck` can derive its independence relation from
    exactly the same footprint GSan uses for happens-before tracking:
    two scheduler steps whose fired events touch disjoint scope sets
    commute, and exploring both orders is redundant.
    """
    scopes: List[str] = []
    if name in ("slot.transition", "slot.protocol_error"):
        scopes.append(f"slot:{values[0]}")
    elif name == "fault.slot.injected":
        scopes.append(f"slot:{values[1]}")
    elif name == "recover.slot_reclaim":
        scopes.append(f"slot:{values[2]}")
        scopes.append(f"inv:{values[0]}")
    elif name in (
        "syscall.claim", "syscall.submit", "syscall.irq",
        "syscall.dispatch", "syscall.complete", "syscall.resume",
        "syscall.retry",
    ):
        index = 1 if name == "syscall.submit" else (
            2 if name == "syscall.dispatch" else (
                3 if name == "syscall.complete" else 0
            )
        )
        if values[index] is not None:
            scopes.append(f"inv:{values[index]}")
    elif name == "wq.enqueue":
        scopes.append(f"task:{values[1]}")
    elif name == "wq.dequeue":
        scopes.append(f"task:{values[1]}")
    elif name == "wq.complete":
        scopes.append(f"task:{values[2]}")
    elif name in ("recover.requeue", "recover.forfeit"):
        scopes.append(f"task:{values[0]}")
    elif name == "fault.worker.injected":
        scopes.append(f"task:{values[2]}")
    elif name in ("scan.enqueue", "scan.start"):
        scopes.append(f"scan:{values[0]}")
    elif name in ("wavefront.halt", "wavefront.resume"):
        scopes.append(f"wf:{values[0]}")
    return scopes


class Violation:
    """One detected protocol/ordering violation, with its evidence."""

    __slots__ = ("rule", "scope", "t", "message", "timeline", "clocks")

    def __init__(
        self,
        rule: str,
        scope: str,
        t: float,
        message: str,
        timeline: List[Tuple[float, str, str, str, bool]],
        clocks: Dict[str, int],
    ) -> None:
        self.rule = rule
        self.scope = scope
        self.t = t
        self.message = message
        #: ``[(t, tracepoint, rendered_args, agent, is_offender), ...]``
        self.timeline = timeline
        self.clocks = clocks

    def render(self) -> str:
        """The annotated event timeline for this violation."""
        lines = [
            f"GSan violation [{self.rule}] at t={self.t:.0f}ns "
            f"({self.scope}): {self.message}",
            "  clocks: "
            + " ".join(f"{agent}={self.clocks[agent]}" for agent in AGENTS),
            f"  timeline ({self.scope}):",
        ]
        if not self.timeline:
            lines.append("    (no events recorded for this scope)")
        for t, name, args, agent, offender in self.timeline:
            marker = "->" if offender else "  "
            suffix = "   << VIOLATION" if offender else ""
            lines.append(
                f"  {marker} t={t:<12.0f} {name}({args}) [{agent}]{suffix}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Violation({self.rule}, {self.scope}, t={self.t:.0f}, {self.message!r})"


class _SlotTrack:
    """Per-slot shadow state: the walk GSan believes the slot is on."""

    __slots__ = (
        "state", "release_ready", "release_finished",
        "last_actor", "last_op", "reclaim_raced",
    )

    def __init__(self) -> None:
        self.state = "free"
        #: Publisher clock snapshots for the two release points of the
        #: protocol; ``None`` means "not currently published".
        self.release_ready: Optional[Dict[str, int]] = None
        self.release_finished: Optional[Dict[str, int]] = None
        #: Who last drove (or last tried to drive) this slot, and with
        #: what operation — named by the end-of-run leak audit so a slot
        #: wedged by a watchdog-reclaim race reports the racing agent,
        #: not just the state it wedged in.
        self.last_actor: Optional[str] = None
        self.last_op: Optional[str] = None
        #: Whether a watchdog reclaim ever raced a protocol error on
        #: this slot (either order) — the wedged-reclaim-race signature.
        self.reclaim_raced = False


class _InvocationTrack:
    """Per-invocation shadow state for exactly-once completion."""

    __slots__ = (
        "name", "blocking", "claimed", "submitted", "completions",
        "completion_kind", "resumed", "release_submit", "release_complete",
    )

    def __init__(self) -> None:
        self.name: Optional[str] = None
        self.blocking = False
        self.claimed = False
        self.submitted = False
        self.completions = 0
        self.completion_kind: Optional[str] = None
        self.resumed = False
        self.release_submit: Optional[Dict[str, int]] = None
        self.release_complete: Optional[Dict[str, int]] = None


class _TaskTrack:
    """Per-workqueue-task shadow state (epoch-requeue aware)."""

    __slots__ = ("state", "pending_forfeits", "requeues")

    def __init__(self) -> None:
        self.state = "queued"  # queued | picked | done
        self.pending_forfeits = 0
        self.requeues = 0


class _GsanObserver:
    """One tracepoint's tap into a :class:`GSan`."""

    __slots__ = ("sanitizer", "name")

    def __init__(self, sanitizer: "GSan", name: str) -> None:
        self.sanitizer = sanitizer
        self.name = name

    def __call__(self, *values: Any) -> None:
        sanitizer = self.sanitizer
        assert sanitizer.registry is not None
        sanitizer.feed(self.name, sanitizer.registry.now(), *values)


class GSan:
    """The sanitizer: attach to a registry, or feed a replayed stream.

    Duck-types the probe-program protocol (``snapshot``) so the metrics
    exporter picks it up from ``registry.programs`` like any other
    attached program.
    """

    kind = "sanitizer"
    name = "gsan"
    tracepoint = None

    def __init__(self, max_timeline: int = 64) -> None:
        self.registry: Optional[ProbeRegistry] = None
        self.max_timeline = max_timeline
        self.clocks: Dict[str, int] = {agent: 0 for agent in AGENTS}
        self.events = 0
        self.violations: List[Violation] = []
        self.defended_races = 0  # stale finishes the protocol refused
        self._timelines: Dict[str, Deque] = {}
        self._slots: Dict[int, _SlotTrack] = {}
        self._invocations: Dict[int, _InvocationTrack] = {}
        self._tasks: Dict[int, _TaskTrack] = {}
        self._scans: Dict[int, bool] = {}  # scan_id -> started
        self._halted: Dict[int, bool] = {}  # hw_id -> wavefront asleep
        self._finished = False
        self._handlers: Dict[str, Callable] = {
            "slot.transition": self._on_slot_transition,
            "slot.protocol_error": self._on_protocol_error,
            "syscall.claim": self._on_claim,
            "syscall.submit": self._on_submit,
            "syscall.dispatch": self._on_dispatch,
            "syscall.complete": self._on_complete,
            "syscall.resume": self._on_resume,
            "recover.slot_reclaim": self._on_reclaim,
            "wq.enqueue": self._on_wq_enqueue,
            "wq.dequeue": self._on_wq_dequeue,
            "wq.complete": self._on_wq_complete,
            "recover.requeue": self._on_requeue,
            "recover.forfeit": self._on_forfeit,
            "scan.enqueue": self._on_scan_enqueue,
            "scan.start": self._on_scan_start,
            "wavefront.halt": self._on_wf_halt,
            "wavefront.resume": self._on_wf_resume,
        }

    # -- attachment --------------------------------------------------------

    def install(self, registry: ProbeRegistry) -> "GSan":
        """Attach pure observers for every tracepoint GSan understands."""
        self.registry = registry
        for name in _EVENT_AGENT:
            if name not in registry.tracepoints:
                continue
            registry.attach(name, self._make_observer(name))
        registry.programs.append(self)
        return self

    def _make_observer(self, name: str) -> Callable:
        return _GsanObserver(self, name)

    # -- the event pump ----------------------------------------------------

    def feed(self, name: str, t: float, *values: Any) -> None:
        """Process one event (from a live observer or a replayed stream)."""
        self.events += 1
        agent = _EVENT_AGENT.get(name, "cpu")
        if agent is None:
            # slot.transition carries actor at index 3,
            # slot.protocol_error at index 2.
            agent = values[3] if name == "slot.transition" else values[2]
            if agent not in self.clocks:
                agent = "cpu"
        self.clocks[agent] += 1
        # Every fired value is immutable, so keeping the raw arguments
        # and formatting them only when a violation is flagged renders
        # exactly what formatting them now would.
        entry = (t, name, values, agent)
        timelines = self._timelines
        for scope in event_scopes(name, values):
            timeline = timelines.get(scope)
            if timeline is None:
                timeline = timelines[scope] = deque(maxlen=self.max_timeline)
            timeline.append(entry)
        handler = self._handlers.get(name)
        if handler is not None:
            handler(t, agent, values)

    @staticmethod
    def _fmt_args(values: Tuple) -> str:
        parts = []
        for value in values:
            text = repr(value)
            if len(text) > 48:
                text = text[:45] + "..."
            parts.append(text)
        return ", ".join(parts)

    def _flag(self, rule: str, scope: str, t: float, message: str) -> None:
        """Record one violation, rendering the scope's timeline with the
        newest event marked as the offender."""
        timeline = [
            (t_ev, name, self._fmt_args(values), agent, False)
            for t_ev, name, values, agent in self._timelines.get(scope, ())
        ]
        if timeline:
            t_ev, name, args, agent, _ = timeline[-1]
            timeline[-1] = (t_ev, name, args, agent, True)
        self.violations.append(
            Violation(rule, scope, t, message, timeline, dict(self.clocks))
        )

    # -- vector clocks -----------------------------------------------------

    def _snapshot(self) -> Dict[str, int]:
        return dict(self.clocks)

    def _join(self, agent: str, release: Dict[str, int]) -> None:
        """Acquire: the reader inherits the publisher's causal past."""
        for key, value in release.items():
            if value > self.clocks[key]:
                self.clocks[key] = value
        self.clocks[agent] += 1

    # -- slot protocol -----------------------------------------------------

    def _slot(self, index: int) -> _SlotTrack:
        track = self._slots.get(index)
        if track is None:
            track = self._slots[index] = _SlotTrack()
        return track

    def _on_slot_transition(self, t: float, agent: str, values: Tuple) -> None:
        slot_index, old, new, actor = values
        scope = f"slot:{slot_index}"
        track = self._slot(slot_index)
        if track.state != old:
            self._flag(
                "slot-state", scope, t,
                f"slot {slot_index} reported edge {old} -> {new} but its "
                f"last published state was {track.state} (skipped or "
                f"reordered transition)",
            )
        owners = SLOT_EDGES.get((old, new))
        if owners is None:
            self._flag(
                "slot-state", scope, t,
                f"slot {slot_index}: {old} -> {new} is not an edge of the "
                f"Figure-6 state machine (actor {actor})",
            )
        elif actor not in owners:
            self._flag(
                "wrong-agent", scope, t,
                f"slot {slot_index}: edge {old} -> {new} belongs to "
                f"{'/'.join(owners)}, but {actor} drove it",
            )
        track.state = new
        track.last_actor = actor
        track.last_op = f"{old}->{new}"
        # Release/acquire bookkeeping.
        if new == "populating" and old == "free":
            track.release_ready = None
            track.release_finished = None
        elif new == "ready":
            track.release_ready = self._snapshot()
        elif old == "ready" and new == "processing":
            if track.release_ready is None:
                self._flag(
                    "acquire-before-release", scope, t,
                    f"slot {slot_index}: CPU read the payload (READY -> "
                    f"PROCESSING) but no READY publish is in its causal past",
                )
            else:
                self._join(actor, track.release_ready)
                track.release_ready = None
        if new == "finished":
            track.release_finished = self._snapshot()
        elif old == "finished" and new == "free":
            if track.release_finished is None:
                self._flag(
                    "acquire-before-release", scope, t,
                    f"slot {slot_index}: GPU consumed the result (FINISHED "
                    f"-> FREE) but no FINISHED publish is in its causal past",
                )
            else:
                self._join(actor, track.release_finished)
                track.release_finished = None

    def _on_protocol_error(self, t: float, agent: str, values: Tuple) -> None:
        slot_index, op, actor, detail = values
        track = self._slot(slot_index)
        track.last_actor = actor
        track.last_op = op
        if op == "reclaim" or (op == "finish" and "stale finish" in detail):
            # Either half of the watchdog/finish collision: a reclaim
            # refused because the worker got there first, or a finish
            # refused because the watchdog did.
            track.reclaim_raced = True
        if op == "finish" and "stale finish" in detail:
            # The defended watchdog race: the stale write was *refused*,
            # which is the protocol working, not breaking.
            self.defended_races += 1
            return
        scope = f"slot:{slot_index}"
        rule = "wrong-agent" if "belongs to" in detail else "protocol-error"
        self._flag(rule, scope, t, f"{detail} (op={op}, actor={actor})")

    # -- invocation lifecycle ---------------------------------------------

    def _invocation(self, invocation_id: int) -> _InvocationTrack:
        track = self._invocations.get(invocation_id)
        if track is None:
            track = self._invocations[invocation_id] = _InvocationTrack()
        return track

    def _on_claim(self, t: float, agent: str, values: Tuple) -> None:
        invocation_id, name, hw_id, lane, granularity, blocking, wait = values
        track = self._invocation(invocation_id)
        track.name = name
        track.blocking = bool(blocking)
        track.claimed = True

    def _on_submit(self, t: float, agent: str, values: Tuple) -> None:
        granularity, invocation_id, name, hw_id, blocking = values
        if invocation_id is None:
            return
        track = self._invocation(invocation_id)
        track.name = name
        track.blocking = bool(blocking)
        track.submitted = True
        track.release_submit = self._snapshot()

    def _on_dispatch(self, t: float, agent: str, values: Tuple) -> None:
        name, hw_id, invocation_id = values
        scope = f"inv:{invocation_id}"
        track = self._invocations.get(invocation_id)
        # A claim is causal evidence the GPU side originated this
        # invocation: syscall.submit is fired by note_issued, a GPU
        # accounting op scheduled *after* the real READY swap, so a
        # fast CPU scan can legitimately dispatch a claimed slot
        # before the submit fire lands.  Only a dispatch for an
        # invocation the GPU never touched at all is a true
        # read-before-publish.
        if track is None or not (track.claimed or track.submitted):
            self._flag(
                "acquire-before-release", scope, t,
                f"invocation {invocation_id} ({name}) was dispatched on the "
                f"CPU before its READY publish (syscall.submit) happened",
            )
            track = self._invocation(invocation_id)
            track.name = name
        elif track.release_submit is not None:
            self._join("cpu", track.release_submit)
        if track.completions:
            self._flag(
                "invocation-lifecycle", scope, t,
                f"invocation {invocation_id} ({name}) was dispatched again "
                f"after it already completed",
            )

    def _complete_once(
        self, t: float, invocation_id: int, name: str, kind: str, publisher: str
    ) -> None:
        scope = f"inv:{invocation_id}"
        track = self._invocations.get(invocation_id)
        if track is None:
            self._flag(
                "invocation-lifecycle", scope, t,
                f"invocation {invocation_id} ({name}) completed ({kind}) "
                f"without ever being submitted",
            )
            track = self._invocation(invocation_id)
            track.name = name
        track.completions += 1
        if track.completions > 1:
            self._flag(
                "duplicate-completion", scope, t,
                f"invocation {invocation_id} ({name}) completed more than "
                f"once ({track.completion_kind} then {kind}) — completion "
                f"must be exactly-once",
            )
        track.completion_kind = kind
        track.release_complete = self._snapshot()

    def _on_complete(self, t: float, agent: str, values: Tuple) -> None:
        name, hw_id, service_ns, invocation_id, blocking = values
        self._complete_once(t, invocation_id, name, "complete", "cpu")
        self._invocations[invocation_id].blocking = bool(blocking)

    def _on_reclaim(self, t: float, agent: str, values: Tuple) -> None:
        invocation_id, name, slot_index, was_state = values
        track = self._slot(slot_index)
        track.last_actor = "watchdog"
        track.last_op = "reclaim"
        track.reclaim_raced = True
        self._complete_once(t, invocation_id, name, "reclaim", "watchdog")

    def _on_resume(self, t: float, agent: str, values: Tuple) -> None:
        invocation_id, name, hw_id = values
        scope = f"inv:{invocation_id}"
        track = self._invocations.get(invocation_id)
        if track is None or track.completions == 0:
            self._flag(
                "acquire-before-release", scope, t,
                f"invocation {invocation_id} ({name}) resumed its caller "
                f"before any completion was published",
            )
            return
        assert track.release_complete is not None
        self._join("gpu", track.release_complete)
        track.resumed = True

    # -- workqueue lifecycle ----------------------------------------------

    def _on_wq_enqueue(self, t: float, agent: str, values: Tuple) -> None:
        backlog, task_index = values
        if task_index in self._tasks:
            self._flag(
                "wq-lifecycle", f"task:{task_index}", t,
                f"task {task_index} was enqueued twice",
            )
            return
        self._tasks[task_index] = _TaskTrack()

    def _on_wq_dequeue(self, t: float, agent: str, values: Tuple) -> None:
        worker_id, task_index = values
        scope = f"task:{task_index}"
        track = self._tasks.get(task_index)
        if track is None:
            self._flag(
                "wq-lifecycle", scope, t,
                f"worker {worker_id} picked up task {task_index} which was "
                f"never enqueued",
            )
            track = self._tasks[task_index] = _TaskTrack()
        elif track.state == "picked":
            self._flag(
                "wq-lifecycle", scope, t,
                f"task {task_index} was picked up twice with no watchdog "
                f"requeue in between",
            )
        elif track.state == "done":
            self._flag(
                "wq-lifecycle", scope, t,
                f"task {task_index} was picked up again after completing",
            )
        track.state = "picked"

    def _on_wq_complete(self, t: float, agent: str, values: Tuple) -> None:
        worker_id, service_ns, task_index = values
        scope = f"task:{task_index}"
        track = self._tasks.get(task_index)
        if track is None or track.state == "queued":
            self._flag(
                "wq-lifecycle", scope, t,
                f"task {task_index} completed without being picked up",
            )
            track = self._tasks.setdefault(task_index, _TaskTrack())
        elif track.state == "done":
            self._flag(
                "duplicate-completion", scope, t,
                f"task {task_index} completed twice",
            )
        track.state = "done"

    def _on_requeue(self, t: float, agent: str, values: Tuple) -> None:
        task_index, worker_id = values
        scope = f"task:{task_index}"
        track = self._tasks.get(task_index)
        if track is None or track.state != "picked":
            self._flag(
                "wq-lifecycle", scope, t,
                f"watchdog requeued task {task_index} which was not stuck "
                f"at a worker",
            )
            track = self._tasks.setdefault(task_index, _TaskTrack())
        track.state = "queued"
        track.requeues += 1
        track.pending_forfeits += 1

    def _on_forfeit(self, t: float, agent: str, values: Tuple) -> None:
        task_index, worker_id = values
        scope = f"task:{task_index}"
        track = self._tasks.get(task_index)
        if track is None or track.pending_forfeits <= 0:
            self._flag(
                "wq-lifecycle", scope, t,
                f"worker {worker_id} forfeited task {task_index} without a "
                f"superseding requeue (epoch never bumped)",
            )
            return
        track.pending_forfeits -= 1

    def _on_scan_enqueue(self, t: float, agent: str, values: Tuple) -> None:
        scan_id, hw_ids = values
        self._scans.setdefault(scan_id, False)

    def _on_scan_start(self, t: float, agent: str, values: Tuple) -> None:
        scan_id, hw_ids = values
        scope = f"scan:{scan_id}"
        started = self._scans.get(scan_id)
        if started is None:
            self._flag(
                "wq-lifecycle", scope, t,
                f"scan {scan_id} started but was never enqueued",
            )
        elif started:
            self._flag(
                "wq-lifecycle", scope, t,
                f"scan {scan_id} started twice",
            )
        self._scans[scan_id] = True

    # -- wavefront wakeups -------------------------------------------------

    def _on_wf_halt(self, t: float, agent: str, values: Tuple) -> None:
        hw_id, live_lanes = values
        if self._halted.get(hw_id):
            self._flag(
                "lost-wakeup", f"wf:{hw_id}", t,
                f"wavefront {hw_id} halted twice without an intervening "
                f"resume",
            )
        self._halted[hw_id] = True

    def _on_wf_resume(self, t: float, agent: str, values: Tuple) -> None:
        hw_id, halted_ns = values
        if not self._halted.get(hw_id):
            self._flag(
                "lost-wakeup", f"wf:{hw_id}", t,
                f"wavefront {hw_id} resumed without being halted",
            )
        self._halted[hw_id] = False

    # -- end-of-run audit --------------------------------------------------

    def finish(self) -> List[Violation]:
        """Run the end-of-run audits; returns *all* violations so far.

        Call after the workload drained (or after a bounded drain timed
        out): anything still open — an invocation with no completion, a
        halted wavefront, a non-FREE slot, an unfinished task — is a
        liveness violation.
        """
        if self._finished:
            return self.violations
        self._finished = True
        t = self.registry.now() if self.registry is not None else 0.0
        for invocation_id, track in self._invocations.items():
            name = track.name or "?"
            if track.completions == 0:
                self._flag(
                    "lost-completion", f"inv:{invocation_id}", t,
                    f"invocation {invocation_id} ({name}) was submitted but "
                    f"never completed or reclaimed",
                )
            elif track.blocking and not track.resumed:
                self._flag(
                    "lost-wakeup", f"inv:{invocation_id}", t,
                    f"blocking invocation {invocation_id} ({name}) completed "
                    f"({track.completion_kind}) but its caller never resumed",
                )
        for hw_id, halted in self._halted.items():
            if halted:
                self._flag(
                    "lost-wakeup", f"wf:{hw_id}", t,
                    f"wavefront {hw_id} is still halted at end of run — "
                    f"its wakeup was lost",
                )
        for slot_index, track in self._slots.items():
            if track.state != "free":
                holder = (
                    f"last driven by {track.last_actor} ({track.last_op})"
                    if track.last_actor is not None
                    else "never driven by any agent"
                )
                raced = (
                    "; a watchdog reclaim raced this slot"
                    if track.reclaim_raced
                    else ""
                )
                self._flag(
                    "slot-leak", f"slot:{slot_index}", t,
                    f"slot {slot_index} ended the run in state "
                    f"{track.state}, not FREE — {holder}{raced}",
                )
        for task_index, track in self._tasks.items():
            if track.state != "done":
                self._flag(
                    "task-lost", f"task:{task_index}", t,
                    f"workqueue task {task_index} ended the run "
                    f"{track.state}, never completed",
                )
        for scan_id, started in self._scans.items():
            if not started:
                self._flag(
                    "task-lost", f"scan:{scan_id}", t,
                    f"scan {scan_id} was enqueued but never started",
                )
        return self.violations

    # -- reporting / export protocol --------------------------------------

    def rules_hit(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return dict(sorted(counts.items()))

    def report(self) -> str:
        """Every violation's rendered timeline, or a clean bill."""
        if not self.violations:
            return (
                f"GSan: {self.events} events checked, 0 violations "
                f"({self.defended_races} defended stale-finish races)"
            )
        blocks = [violation.render() for violation in self.violations]
        blocks.append(
            f"GSan: {self.events} events checked, "
            f"{len(self.violations)} violation(s): "
            + ", ".join(f"{k}={v}" for k, v in self.rules_hit().items())
        )
        return "\n\n".join(blocks)

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "schema": GSAN_SNAPSHOT_SCHEMA,
            "events": self.events,
            "violations": len(self.violations),
            "rules": self.rules_hit(),
            "defended_races": self.defended_races,
            "clocks": dict(self.clocks),
        }


class GSanPlan:
    """An attach plan: one fresh :class:`GSan` per built System.

    Run an experiment inside ``with probes.attached(plan):`` (alongside
    any other plans); every ``System.__init__`` then gets its own sanitizer
    (experiments may build several systems, whose slot/task index
    spaces are independent).  ``--attach gsan`` applies one.
    """

    def __init__(self, max_timeline: int = 64) -> None:
        self.max_timeline = max_timeline
        self.sanitizers: List[GSan] = []

    def __call__(self, registry: ProbeRegistry) -> None:
        self.sanitizers.append(GSan(max_timeline=self.max_timeline).install(registry))

    def finish(self) -> List[Violation]:
        return [v for sanitizer in self.sanitizers for v in sanitizer.finish()]

    @property
    def events(self) -> int:
        return sum(sanitizer.events for sanitizer in self.sanitizers)
