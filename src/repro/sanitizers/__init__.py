"""``repro.sanitizers`` — machine-checked protocol invariants + lint.

Two checkers guard the stack:

* :class:`GSan` — a vector-clock happens-before sanitizer implemented
  as a pure probes observer over the existing tracepoint stream.  It
  verifies the Figure-6 slot state machine (including the PR-4
  watchdog reclaim and stale-finish edges), release/acquire ordering
  between the GPU publish and the CPU read, exactly-once completion
  per invocation, no lost wakeups, and the workqueue task lifecycle.
  Attaching it leaves every simulated timestamp byte-identical — the
  same guarantee every probes/tracing observer carries.

* :func:`repro.sanitizers.lint.run_lint` — an AST-based static pass
  over ``src/`` flagging determinism hazards (wall clock, ``random``,
  unordered-set iteration, ``id()``-keyed ordering), cross-checking
  every ``Tracepoint.fire`` call site against the static registry,
  validating ``Errno`` constants, and enforcing ``__slots__`` on the
  hot-path classes.

GSan attaches like every other observer (``python -m repro run NAME
--attach gsan``; a violation exits 1) and lint is a verb (``python -m
repro lint``).  The seeded-bug corpus (:mod:`repro.modelcheck.corpus`,
``python -m repro corpus``) proves the sanitizer actually fires on
wedged slots, killed workers, dropped IRQs, hand-reordered event
streams and the ordering bugs only schedule exploration reaches.
"""

from repro.sanitizers.gsan import GSan, GSanPlan, Violation
from repro.sanitizers.lint import LintFinding, run_lint

__all__ = [
    "GSan",
    "GSanPlan",
    "Violation",
    "LintFinding",
    "run_lint",
]
