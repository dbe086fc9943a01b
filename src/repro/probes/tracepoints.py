"""Static tracepoints and the per-machine probe registry.

The shape follows gpu_ext's eBPF-for-GPUs argument (see PAPERS.md):
the simulated stack declares *static tracepoints* and user programs
attach to them at runtime.  Two properties are load-bearing:

* **Near-zero detached cost.**  Every instrumentation site is guarded
  by a plain attribute check (``if tp.enabled: tp.fire(...)``), the
  software analogue of a nop-sled static key: when nothing is attached
  the site costs one attribute load and a branch, and no argument tuple
  is ever built.
* **Observer determinism.**  ``fire`` invokes observers synchronously,
  in attach order, with plain Python values.  Observers are given no
  simulator handle, cannot yield, and must not mutate simulated state —
  so attaching any number of observer programs leaves every simulated
  timestamp and result byte-identical (enforced by
  ``tests/test_observer_neutrality.py``).  A probe never changes a
  decision: the fault sites ask a plan's injector directly
  (:mod:`repro.faults.plan`).

A :class:`ProbeRegistry` is created per :class:`~repro.system.System`
and threaded through every layer; components constructed standalone
make a private registry so their tracepoints always exist.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

Observer = Callable[..., None]


class Tracepoint:
    """One named static observation point.

    ``args`` documents the positional values ``fire`` passes to every
    observer (the tracepoint's stable ABI); ``hits`` counts delivered
    fires (detached fires are skipped at the call site and never
    counted).
    """

    __slots__ = ("name", "args", "doc", "enabled", "hits", "_observers")

    def __init__(self, name: str, args: Sequence[str] = (), doc: str = ""):
        self.name = name
        self.args: Tuple[str, ...] = tuple(args)
        self.doc = doc
        self.enabled = False
        self.hits = 0
        self._observers: List[Observer] = []

    @property
    def observers(self) -> int:
        return len(self._observers)

    def attach(self, observer: Observer) -> Observer:
        """Attach ``observer`` (called as ``observer(*fire_args)``)."""
        if not callable(observer):
            raise TypeError(f"observer for {self.name!r} is not callable")
        self._observers.append(observer)
        self.enabled = True
        return observer

    def detach(self, observer: Observer) -> None:
        """Detach one observer; unknown observers are ignored."""
        try:
            self._observers.remove(observer)
        except ValueError:
            return
        if not self._observers:
            self.enabled = False

    def detach_all(self) -> None:
        self._observers.clear()
        self.enabled = False

    def fire(self, *values: Any) -> None:
        """Deliver one event to every observer (call only when enabled)."""
        self.hits += 1
        for observer in self._observers:
            observer(*values)

    def __repr__(self) -> str:
        state = f"{len(self._observers)} attached" if self.enabled else "detached"
        return f"Tracepoint({self.name!r}, {state}, hits={self.hits})"


class _NullTracepoint(Tracepoint):
    """Inert default for instrumented classes constructed standalone.

    Always disabled; attaching to it is a bug (the instance was never
    bound to a registry), so it refuses loudly instead of dropping
    events silently.
    """

    __slots__ = ()

    def attach(self, observer: Observer) -> Observer:
        raise RuntimeError(
            "cannot attach to the null tracepoint: this component was not "
            "bound to a ProbeRegistry"
        )


#: Shared inert tracepoint used as the class-level default on
#: instrumented classes (e.g. ``Cache.tp_hit``) so fire sites never
#: need a None check.
NULL_TRACEPOINT = _NullTracepoint("<null>")


class ProbeRegistry:
    """All tracepoints of one simulated machine.

    Components declare their tracepoints with :meth:`tracepoint`
    (idempotent per name); user code looks them up by name and attaches
    observers.  ``sim`` provides the clock that time-series
    programs (metrics hubs) sample.
    """

    def __init__(self, sim: Any = None):
        self.sim = sim
        self.tracepoints: Dict[str, Tracepoint] = {}
        #: Observer programs (metrics hubs, span tracers, GSan) that
        #: installed themselves here, in install order — what exporters
        #: snapshot.
        self.programs: List[Any] = []

    # -- declaration (component side) ------------------------------------

    def tracepoint(self, name: str, args: Sequence[str] = (), doc: str = "") -> Tracepoint:
        """Create-or-get the tracepoint ``name`` (idempotent)."""
        existing = self.tracepoints.get(name)
        if existing is not None:
            return existing
        tp = Tracepoint(name, args, doc)
        self.tracepoints[name] = tp
        return tp

    # -- lookup / attach (user side) --------------------------------------

    def get(self, name: str) -> Tracepoint:
        try:
            return self.tracepoints[name]
        except KeyError:
            raise KeyError(
                f"unknown tracepoint {name!r}; known: {', '.join(sorted(self.tracepoints))}"
            ) from None

    def match(self, pattern: str) -> List[Tracepoint]:
        """Tracepoints matching ``pattern``: an exact name, ``*`` for
        all, or a ``prefix*`` glob (e.g. ``mem.*``)."""
        if pattern == "*":
            return [self.tracepoints[name] for name in sorted(self.tracepoints)]
        if pattern.endswith("*"):
            prefix = pattern[:-1]
            return [
                self.tracepoints[name]
                for name in sorted(self.tracepoints)
                if name.startswith(prefix)
            ]
        return [self.get(pattern)]

    def attach(self, name: str, observer: Observer) -> Observer:
        """Attach ``observer`` to the tracepoint ``name``."""
        return self.get(name).attach(observer)

    def detach_all(self) -> None:
        """Detach every observer and forget every program."""
        for tp in self.tracepoints.values():
            tp.detach_all()
        self.programs.clear()

    # -- services ---------------------------------------------------------

    def now(self) -> float:
        """Current simulated time (0.0 when no simulator is bound)."""
        return self.sim.now if self.sim is not None else 0.0

    def catalogue(self) -> Dict[str, dict]:
        """Name → {args, doc} for every tracepoint, sorted by name."""
        return {
            name: {"args": list(tp.args), "doc": tp.doc}
            for name, tp in sorted(self.tracepoints.items())
        }

    def __repr__(self) -> str:
        return (
            f"ProbeRegistry({len(self.tracepoints)} tracepoints, "
            f"{len(self.programs)} programs)"
        )


class _RecorderTap:
    """One tracepoint's tap into a :class:`StreamRecorder`."""

    __slots__ = ("recorder", "name")

    def __init__(self, recorder: "StreamRecorder", name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __call__(self, *args) -> None:
        recorder = self.recorder
        recorder.events.append((recorder.registry.now(), self.name, args))


class StreamRecorder:
    """Observer recording ``(t_ns, tracepoint, args)`` for every matched
    tracepoint, in firing order, into one list: the way to capture an
    event stream (say, every ``fault.*`` and ``recover.*`` fire) and
    compare it across runs.
    """

    def __init__(self, registry: "ProbeRegistry") -> None:
        self.registry = registry
        self.events: List[tuple] = []

    def attach(self, *patterns: str) -> "StreamRecorder":
        """Attach to every tracepoint matching the given patterns (see
        :meth:`ProbeRegistry.match`); returns self for chaining."""
        seen = set()
        for pattern in patterns:
            for tp in self.registry.match(pattern):
                if tp.name not in seen:
                    seen.add(tp.name)
                    self.registry.attach(tp.name, _RecorderTap(self, tp.name))
        return self


# -- the global attach stack ---------------------------------------------
#
# Experiments construct their Systems internally, so observers cannot
# attach to them directly.  Instead they push *plans*: callables applied,
# in push order, to every ProbeRegistry a System creates while they are
# on the stack.  Plans compose by listing — ``attached(tracer, hub, gsan)``
# — and the stack is the only piece of module-global state in the
# subsystem.

Plan = Callable[["ProbeRegistry"], Any]

_PLANS: List[Plan] = []


def install_global_plan(plan: Plan) -> Plan:
    """Push ``plan``: apply it to every subsequently-built System."""
    _PLANS.append(plan)
    return plan


def clear_global_plan() -> None:
    """Empty the attach stack."""
    _PLANS.clear()


def apply_global_plan(registry: "ProbeRegistry") -> None:
    """Called by ``System.__init__`` once all tracepoints exist."""
    for plan in _PLANS:
        plan(registry)


@contextmanager
def attached(*plans: Plan) -> Iterator[Tuple[Plan, ...]]:
    """Push ``plans`` for the body of a ``with`` block; on exit, even by
    an exception, pop exactly those plans and leave any others."""
    depth = len(_PLANS)
    _PLANS.extend(plans)
    try:
        yield plans
    finally:
        del _PLANS[depth:depth + len(plans)]
