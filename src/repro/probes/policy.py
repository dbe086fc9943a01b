"""Policy hooks: decision points an attached program may override.

Where tracepoints only *observe*, a policy hook sits at a designated
decision in the stack — the interrupt about to be delivered, the slot
about to be completed, the blocking call about to be retried — and
lets an attached program replace the default.  This is the
reproduction of gpu_ext's thesis: user-supplied programs steer GPU/OS
policy through static, typed hook points instead of kernel patches.
A hook exists only where a program decides per call.  There are six:
the fault injector's five (``fault.irq``, ``fault.net``, ``fault.worker``,
``fault.errno``, ``fault.slot``) and ``genesys.retry``, whose program
is the injector's widened retry set.  A value that is the same for
every call is a sysfs knob (``Genesys`` ``SYSFS_KNOBS``).

The contract mirrors an eBPF program return code: a program receives
``(default, *args)`` and returns either a replacement value or ``None``
to keep the current value.  Programs run in attach order, each seeing
the previous program's choice, so later programs can veto earlier ones.
Hook sites guard on ``hook.active`` the same way tracepoint sites guard
on ``tp.enabled``, so a detached hook costs one attribute check.

Unlike observers, policy programs are *expected* to change simulated
results — that is their purpose — so the byte-identical determinism
guarantee applies only to observer probes, never to attached policies.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

PolicyProgram = Callable[..., Any]


class PolicyHook:
    """One named decision point.

    ``decisions`` counts consultations; ``overrides`` counts the
    consultations where at least one program changed the value.
    """

    __slots__ = ("name", "args", "doc", "active", "decisions", "overrides", "_programs")

    def __init__(self, name: str, args: Sequence[str] = (), doc: str = ""):
        self.name = name
        self.args: Tuple[str, ...] = tuple(args)
        self.doc = doc
        self.active = False
        self.decisions = 0
        self.overrides = 0
        self._programs: List[PolicyProgram] = []

    @property
    def programs(self) -> int:
        return len(self._programs)

    def attach(self, program: PolicyProgram) -> PolicyProgram:
        """Attach ``program`` (called as ``program(current, *args)``)."""
        if not callable(program):
            raise TypeError(f"policy program for {self.name!r} is not callable")
        self._programs.append(program)
        self.active = True
        return program

    def detach(self, program: PolicyProgram) -> None:
        try:
            self._programs.remove(program)
        except ValueError:
            return
        if not self._programs:
            self.active = False

    def detach_all(self) -> None:
        self._programs.clear()
        self.active = False

    def decide(self, default: Any, *args: Any) -> Any:
        """Run the program chain over ``default`` (call only when active)."""
        self.decisions += 1
        value = default
        for program in self._programs:
            choice = program(value, *args)
            if choice is not None:
                value = choice
        if value is not default and value != default:
            self.overrides += 1
        return value

    def __repr__(self) -> str:
        state = f"{len(self._programs)} programs" if self.active else "inactive"
        return (
            f"PolicyHook({self.name!r}, {state}, "
            f"decisions={self.decisions}, overrides={self.overrides})"
        )


class _FixedPolicy:
    """Callable always-``value`` policy program."""

    __slots__ = ("policy_value",)

    def __init__(self, value: Any) -> None:
        self.policy_value = value  # introspectable for snapshots/tests

    def __call__(self, current: Any, *args: Any) -> Any:
        return self.policy_value

    def __repr__(self) -> str:
        return f"fixed({self.policy_value!r})"


def fixed(value: Any) -> PolicyProgram:
    """A policy program that always answers ``value``.

    Tests and demos use it to force one decision, such as a wedged slot
    on ``fault.slot``; a value meant to hold is a sysfs knob write.
    """
    return _FixedPolicy(value)
