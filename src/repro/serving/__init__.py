"""Open-loop load generation, RPS sweeps, and SLO curves.

The paper's serving workloads (memcached over GENESYS, udp-echo) are
evaluated elsewhere in this repo with closed-loop clients: a fixed pool
of outstanding requests, so offered load collapses to whatever the
server sustains and saturation/tail behaviour is invisible.  This
package is the missing half of that methodology:

* :mod:`repro.serving.arrivals` — open-loop arrival processes (Poisson
  and bursty ON/OFF), seeded, decoupled from service completion;
* :mod:`repro.serving.clients` — a fleet of simulated clients
  multiplexed over the UDP stack with zipfian key popularity and
  per-request lifecycle tracking;
* :mod:`repro.serving.sweep` — warmup/measure/drain windows, fixed-RPS
  points, RPS-grid sweeps, and bisection for the max sustainable
  throughput under an SLO;
* :mod:`repro.serving.report` — the schema-versioned
  ``BENCH_serving.json`` trajectory file and its structural checker.

Command line: ``python -m repro serve|sweep|overload|report``.
"""

from repro.serving.arrivals import ArrivalSpec, arrival_times
from repro.serving.clients import ClientFleet, RequestRecord, ZipfKeys, build_schedule
from repro.serving.report import SCHEMA, SCHEMA_VERSION, check_report, render
from repro.serving.sweep import (
    ServingConfig,
    run_point,
    run_point_on,
    sweep,
)

__all__ = [
    "ArrivalSpec",
    "ClientFleet",
    "RequestRecord",
    "SCHEMA",
    "SCHEMA_VERSION",
    "ServingConfig",
    "ZipfKeys",
    "arrival_times",
    "build_schedule",
    "check_report",
    "render",
    "run_point",
    "run_point_on",
    "sweep",
]
