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

Both have a verb, ``python -m repro check`` and ``python -m repro
lint``; the seeded violation corpus (:mod:`repro.sanitizers.corpus`,
``python -m repro corpus gsan``) proves the
sanitizer actually fires on wedged slots, killed workers, dropped
IRQs, and hand-reordered event streams.
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
