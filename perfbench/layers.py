"""Per-layer host time from a stdlib ``cProfile`` run, with no edit to ``src/``.

Every profiled function is owned by a *bucket*:

* one of the 16 ``repro`` packages, for code under ``src/repro/<pkg>/``;
* ``system``, for the top-level ``repro`` modules (``system.py``,
  ``machine.py``, ...) and any package not in :data:`PACKAGES`;
* ``other``, for the benchmark's own files and for time no caller owns.

Stdlib, builtin and numpy functions own nothing.  Their self time is
charged to whoever called them, split by caller-edge time, and charged
on up when the caller is itself foreign (``json.dumps`` -> encoder ->
builtin all land on the package that called ``json.dumps``).  Calls are
split the same way, by caller-edge call count.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

#: The ``repro`` packages, in the order reports list them.
PACKAGES = (
    "sim", "gpu", "memory", "core", "oskernel", "workloads", "experiments",
    "serving", "qos", "faults", "modelcheck", "sanitizers", "probes",
    "tracing", "metrics", "runfarm",
)
BUCKETS = PACKAGES + ("system", "other")

#: ``pstats`` function key: ``(filename, line, name)``.
Func = Tuple[str, int, str]

#: Index of the call count and of the self time in a pstats row.
_CALLS, _SELF = 1, 2

#: Charging foreign frames to their callers is a fixed point when foreign
#: functions call each other in cycles; it stops once no weight moves by
#: more than this, and charges what is left over to ``other``.
_TOLERANCE = 1e-12
_MAX_ROUNDS = 1000


def owner(filename: str, harness_dir: str) -> Optional[str]:
    """The bucket that owns code in ``filename``; ``None`` for foreign code."""
    path = os.path.normpath(filename)
    if path.startswith(harness_dir + os.sep):
        return "other"
    parts = path.split(os.sep)
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            pkg = parts[i + 1]
            return pkg if pkg in PACKAGES else "system"
    return None


def split(stats: dict, harness_dir: str) -> Dict[str, Dict[str, float]]:
    """``{bucket: {"self_s", "share", "calls"}}`` for every bucket.

    ``stats`` is ``pstats.Stats(profile).stats``.  Shares sum to 1 over
    the buckets (to float rounding) whenever any time was profiled.
    """
    harness_dir = os.path.normpath(harness_dir)
    owners = {func: owner(func[0], harness_dir) for func in stats}
    totals = {}
    for field in (_SELF, _CALLS):
        weights = _foreign_weights(stats, owners, field)
        total = dict.fromkeys(BUCKETS, 0.0)
        for func, row in stats.items():
            bucket = owners[func]
            if bucket is not None:
                total[bucket] += row[field]
            else:
                for name, weight in weights[func].items():
                    total[name] += row[field] * weight
        totals[field] = total
    self_s, calls = totals[_SELF], totals[_CALLS]
    profiled = sum(self_s.values())
    return {
        bucket: {
            "self_s": self_s[bucket],
            "share": self_s[bucket] / profiled if profiled else 0.0,
            "calls": round(calls[bucket]),
        }
        for bucket in BUCKETS
    }


def _foreign_weights(
    stats: dict, owners: Dict[Func, Optional[str]], field: int
) -> Dict[Func, Dict[str, float]]:
    """For each foreign function, the share of its cost each bucket bears."""
    edges: Dict[Func, List[Tuple[Func, float]]] = {}
    for func, row in stats.items():
        if owners[func] is None:
            callers = {
                caller: edge[field]
                for caller, edge in row[4].items()
                if caller in stats and edge[field] > 0
            }
            total = sum(callers.values())
            edges[func] = [(caller, amount / total) for caller, amount in callers.items()]
    # Starting from nothing, every weight only grows round by round, so
    # the mass a round adds is how far it moved.
    weights: Dict[Func, Dict[str, float]] = {func: {} for func in edges}
    for _round in range(_MAX_ROUNDS):
        moved = 0.0
        for func, callers in edges.items():
            new: Dict[str, float] = {}
            for caller, p in callers:
                bucket = owners[caller]
                for name, weight in ({bucket: 1.0} if bucket else weights[caller]).items():
                    new[name] = new.get(name, 0.0) + p * weight
            moved = max(moved, sum(new.values()) - sum(weights[func].values()))
            weights[func] = new
        if moved <= _TOLERANCE:
            break
    for weight in weights.values():
        weight["other"] = weight.get("other", 0.0) + max(0.0, 1.0 - sum(weight.values()))
    return weights
