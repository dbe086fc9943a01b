"""The brownout controller: staged, hysteretic service degradation.

Sensors are windowed reads from a :class:`~repro.metrics.hub.MetricsHub`
(p99 syscall latency, workqueue depth); actuators are the
``coalesce.window`` policy hook and two state flags.  Escalation is one
level per tick when *either* sensor is above its high-water mark,
de-escalation one level per tick only when *both* are below their
low-water marks — the hysteresis band prevents flapping at the
threshold.

Levels (cumulative — level N implies everything below it):

* **0** — normal service.
* **1** — shrink the coalescing window (``coalesce.window`` program):
  trade batching efficiency for latency, the Fig-13 knee walked back.
* **2** — interrupt -> polling mode (``InterruptController.polling``
  absorbs top halves; this controller's tick calls
  ``Genesys.poll_scan``): under an interrupt storm the paper's polling
  CPU kernel wins (Fig 9).
* **3** — raise the priority floor (``Genesys.qos_priority_floor``):
  lowest-priority classes are shed at dispatch (``qos.shed`` reason
  ``priority``) until pressure clears.

The tick rides a *weak* timer: a pure policy pass that never keeps
the simulation alive on its own.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro.metrics.hub import MetricsHub

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System


class _ScaleWindow:
    """``coalesce.window`` program: scale the decided window by a fixed
    factor (0.0 = flush every bundle immediately)."""

    __slots__ = ("factor",)

    def __init__(self, factor: float) -> None:
        self.factor = float(factor)

    def __call__(self, current: Any, *args: Any) -> Any:
        try:
            return float(current) * self.factor
        except (TypeError, ValueError):
            return None


class BrownoutController:
    """Hysteretic degradation ladder over the QoS actuators."""

    def __init__(
        self,
        system: "System",
        hub: MetricsHub,
        period_ns: float = 20_000.0,
        hi_p99_ns: float = 250_000.0,
        lo_p99_ns: float = 100_000.0,
        hi_depth: float = 8.0,
        lo_depth: float = 2.0,
        max_level: int = 2,
        window_scale: float = 0.0,
        priority_floor: int = 1,
    ) -> None:
        if period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {period_ns}")
        if not 0 <= max_level <= 3:
            raise ValueError(f"max_level must be in [0, 3], got {max_level}")
        if lo_p99_ns > hi_p99_ns or lo_depth > hi_depth:
            raise ValueError("brownout low-water marks must not exceed high-water")
        self.system = system
        self.hub = hub
        self.period_ns = float(period_ns)
        self.hi_p99_ns = float(hi_p99_ns)
        self.lo_p99_ns = float(lo_p99_ns)
        self.hi_depth = float(hi_depth)
        self.lo_depth = float(lo_depth)
        self.max_level = int(max_level)
        self.window_scale = float(window_scale)
        self.priority_floor = int(priority_floor)
        self.level = 0
        self.escalations = 0
        self.deescalations = 0
        self.ticks = 0
        self.peak_level = 0
        self._window_program: Optional[_ScaleWindow] = None
        self._next_tick_ns = 0.0
        self._running = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "BrownoutController":
        if self._running:
            return self
        self._running = True
        self._next_tick_ns = (
            int(self.system.sim.now // self.period_ns) + 1
        ) * self.period_ns
        self._arm()
        return self

    def stop(self) -> None:
        self._running = False
        while self.level > 0:
            self._leave_level(self.level)
            self.level -= 1

    def _arm(self) -> None:
        # Weak: the controller observes and steers but never holds the
        # simulation open (sim.now is stale inside a weak callback, so
        # the boundary is tracked explicitly).
        self.system.sim.call_at(self._next_tick_ns, self._tick, weak=True)

    # -- the control loop --------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        # Read the windows closed by this tick's boundary: ``sim.now``
        # inside a weak callback is the last live event's time.
        self.hub.finalize(self._next_tick_ns)
        genesys = self.system.genesys
        if self.level >= 2:
            # Polling mode: this tick *is* the polling CPU kernel.
            genesys.poll_scan()
        enabled = bool(genesys.qos_brownout_enabled)
        p99 = self.hub.read("syscall.latency", mode="p99")
        depth = self.hub.read("wq.depth")
        if not enabled:
            while self.level > 0:
                self._leave_level(self.level)
                self.level -= 1
                self.deescalations += 1
        elif (p99 > self.hi_p99_ns or depth > self.hi_depth) and (
            self.level < self.max_level
        ):
            self.level += 1
            self.escalations += 1
            if self.level > self.peak_level:
                self.peak_level = self.level
            self._enter_level(self.level)
        elif p99 < self.lo_p99_ns and depth < self.lo_depth and self.level > 0:
            self._leave_level(self.level)
            self.level -= 1
            self.deescalations += 1
        self._next_tick_ns += self.period_ns
        self._arm()

    # -- actuators ---------------------------------------------------------

    def _enter_level(self, level: int) -> None:
        probes = self.system.probes
        genesys = self.system.genesys
        if level == 1:
            self._window_program = _ScaleWindow(self.window_scale)
            probes.attach_policy("coalesce.window", self._window_program)
        elif level == 2:
            self.system.kernel.interrupts.polling = True
        elif level == 3:
            genesys.qos_priority_floor = self.priority_floor

    def _leave_level(self, level: int) -> None:
        probes = self.system.probes
        genesys = self.system.genesys
        if level == 1 and self._window_program is not None:
            probes.get_hook("coalesce.window").detach(self._window_program)
            self._window_program = None
        elif level == 2:
            self.system.kernel.interrupts.polling = False
            # Interrupts absorbed while polling left suppression marks
            # with no scan behind them; clear them and run one last
            # polling pass so nothing is stranded between modes.
            genesys._scan_suppressed.clear()
            genesys.poll_scan()
        elif level == 3:
            genesys.qos_priority_floor = 0

    def summary(self) -> dict:
        return {
            "level": self.level,
            "peak_level": self.peak_level,
            "ticks": self.ticks,
            "escalations": self.escalations,
            "deescalations": self.deescalations,
        }

    def __repr__(self) -> str:
        return (
            f"BrownoutController(level={self.level}, peak={self.peak_level}, "
            f"ticks={self.ticks})"
        )
