"""Utilisation tracking for execution units.

The paper's Figure 14 plots CPU utilisation over the run of the
wordcount workload; :class:`UtilizationTracker` integrates the busy
fraction that figure and the Perfetto utilisation tracks read.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.engine import Simulator


class UtilizationTracker:
    """Tracks what fraction of time a set of execution units is busy.

    Units call :meth:`busy` / :meth:`idle` as they start and finish work;
    the tracker integrates (busy_units / total_units) over time, and can
    report both a whole-run average and the busy-fraction segments.
    """

    def __init__(self, sim: Simulator, total_units: int, name: str = "") -> None:
        if total_units < 1:
            raise ValueError("total_units must be >= 1")
        self.sim = sim
        self.total_units = total_units
        self.name = name
        self._busy = 0
        self._last_change = sim.now
        self._segments: List[Tuple[float, float, float]] = []

    def _commit(self) -> None:
        now = self.sim.now
        if now > self._last_change:
            frac = self._busy / self.total_units
            self._segments.append((self._last_change, now, frac))
        self._last_change = now

    def busy(self) -> None:
        self._commit()
        self._busy += 1
        if self._busy > self.total_units:
            raise RuntimeError(f"{self.name}: more busy units than exist")

    def idle(self) -> None:
        self._commit()
        if self._busy == 0:
            raise RuntimeError(f"{self.name}: idle() without busy()")
        self._busy -= 1

    def average(self, since: float = 0.0) -> float:
        """Time-weighted average utilisation in [0, 1] since ``since``."""
        self._commit()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        weighted = 0.0
        for seg_start, seg_end, frac in self._segments:
            lo = max(seg_start, since)
            hi = seg_end
            if hi > lo:
                weighted += (hi - lo) * frac
        return weighted / elapsed

    def segments(self) -> List[Tuple[float, float, float]]:
        """All (start, end, busy_fraction) segments recorded so far."""
        self._commit()
        return list(self._segments)
