"""Every numeric field of a fault or QoS plan rejects NaN, infinity and
values below its bound with a ValueError, and a fault plan refuses an
errno no caller retries.

A plan also arrives from outside the program: ``FaultPlan.from_dict``
reads the certificates ``replay`` loads, and Python's ``json`` parses
``NaN`` and ``Infinity``.  A comparison with NaN is always false, so a
check written as ``if value < 0: raise`` lets NaN through.
"""

import dataclasses
import json
import math

import pytest

from repro.faults import FaultPlan
from repro.oskernel.errors import Errno
from repro.qos import QosPlan

NAN = math.nan
INF = math.inf


def numeric_fields(plan):
    """Fields whose default is a plain int or float (not a bool), so a
    field added later is covered without editing this file."""
    return [f.name for f in dataclasses.fields(plan) if type(f.default) in (int, float)]


BAD_PLANS = (
    [
        (plan, field, bad)
        for plan in (FaultPlan, QosPlan)
        for field in numeric_fields(plan)
        for bad in (NAN, -1, INF)
    ]
    # DeterministicRandom(0) starts from seed 1's state: a fault plan's
    # seed is at least 1.
    + [(FaultPlan, "seed", 0)]
    + [(FaultPlan, "max_faults", bad) for bad in (NAN, -1, INF)]
    + [
        (FaultPlan, field, bad)
        for field in ("irq_delay_ns", "worker_stall_ns", "net_delay_ns")
        for bad in ((NAN, NAN), (0.0, NAN), (-1.0, 5.0), (0.0, INF))
    ]
    # Only an errno a GPU caller retries (EINTR, EAGAIN) may be injected.
    + [(FaultPlan, "errnos", (int(Errno.EINTR), int(Errno.ENOMEM)))]
)


@pytest.mark.parametrize(
    "plan, field, bad", BAD_PLANS,
    ids=[f"{plan.__name__}-{field}-{bad}" for plan, field, bad in BAD_PLANS],
)
def test_plan_rejects_bad_number(plan, field, bad):
    with pytest.raises(ValueError, match=field):
        plan(**{field: bad})


@pytest.mark.parametrize("field", numeric_fields(FaultPlan))
def test_certificate_plan_with_nan_is_refused(field):
    doc = json.loads('{"seed": 3, "%s": NaN}' % field)
    with pytest.raises(ValueError, match=field):
        FaultPlan.from_dict(doc)
