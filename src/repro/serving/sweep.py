"""Fixed-RPS points, RPS-grid sweeps, and SLO bisection.

Methodology (the standard serving-benchmark shape):

* every *point* runs one fixed offered RPS through three windows —
  **warmup** (requests sent, excluded from stats), **measure** (the
  window all reported numbers come from), and **drain** (one request
  timeout after the last send, so stragglers can classify);
* a *sweep* walks an ascending RPS grid, then **bisects** between the
  highest grid point that met the SLO and the lowest that missed it to
  find the max sustainable throughput — SLO = p99 latency at or under a
  target AND completion (achieved/offered) at or above a floor;
* sweep points are independent simulations, so they farm across
  :mod:`repro.runfarm` workers.  Every point builds its own fresh
  machine, and a machine numbers its own pids, inodes and sockets, so
  the serial (``workers=1``) and farmed sweeps are byte-identical.

Latency percentiles reuse :func:`repro.tracing.analysis.summarize`
(nearest-rank) over the per-request latency timeline the client fleet
records.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runfarm import Job, run_jobs
from repro.serving.arrivals import ArrivalSpec, arrival_times
from repro.serving.clients import (
    HDR_BYTES,
    ClientFleet,
    ZipfKeys,
    build_schedule,
    pack_reqid,
)
from repro.system import System
from repro.tracing import analysis

WORKLOADS = ("memcached", "udp-echo")

#: Per-point arrival/key seeds must differ across points of one sweep
#: (or every point would replay the same timestamp stream scaled) while
#: staying a pure function of (config seed, rps).
_POINT_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class ServingConfig:
    """Everything a serving run needs besides the offered RPS."""

    workload: str = "memcached"
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    zipf_s: float = 0.99
    seed: int = 1
    num_clients: int = 256
    #: Per-request deadline; replies after it classify ``late``.
    timeout_ns: float = 400_000.0
    warmup_ns: float = 150_000.0
    measure_ns: float = 600_000.0
    #: Width of the per-point report windows the measure interval is
    #: sliced into (time-series in ``BENCH_serving.json``, schema v2).
    report_window_ns: float = 100_000.0
    num_workgroups: int = 4
    workgroup_size: int = 16
    #: Server receive-queue bound (datagrams); None = unbounded.
    rx_backlog: Optional[int] = 512
    # memcached table shape (ignored by udp-echo)
    num_buckets: int = 8
    elems_per_bucket: int = 64
    value_bytes: int = 256
    # udp-echo request size (ignored by memcached)
    payload_bytes: int = 64
    # SLO for sweeps
    slo_p99_ns: float = 150_000.0
    slo_completion: float = 0.99
    bisect_iters: int = 5

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown serving workload {self.workload!r}; choose from {WORKLOADS}"
            )

    def point_seed(self, rps: int) -> int:
        return self.seed * _POINT_SEED_STRIDE + int(rps)

    def as_dict(self) -> dict:
        doc = {
            "workload": self.workload,
            "arrival": self.arrival.as_dict(),
            "zipf_s": self.zipf_s,
            "seed": self.seed,
            "num_clients": self.num_clients,
            "timeout_ns": self.timeout_ns,
            "warmup_ns": self.warmup_ns,
            "measure_ns": self.measure_ns,
            "report_window_ns": self.report_window_ns,
            "num_workgroups": self.num_workgroups,
            "workgroup_size": self.workgroup_size,
            "rx_backlog": self.rx_backlog,
            "num_buckets": self.num_buckets,
            "elems_per_bucket": self.elems_per_bucket,
            "value_bytes": self.value_bytes,
            "payload_bytes": self.payload_bytes,
        }
        return doc

    def slo_dict(self) -> dict:
        return {
            "p99_ns": self.slo_p99_ns,
            "min_completion": self.slo_completion,
        }


# -- workload glue -----------------------------------------------------------


def build_target(config: ServingConfig, system: Optional[System] = None):
    """Fresh (or caller-provided) machine plus a warm serving workload.

    The callers keep the machine past the point and never close it (see
    :meth:`repro.system.System.close`), so the previous point's machine
    is cyclic garbage by now.  A fresh machine is built only after a
    full collection, which frees it and keeps peak memory flat however
    many points one process runs.
    """
    if system is None:
        gc.collect()
        system = System()
    if config.workload == "memcached":
        from repro.workloads.memcachedwl import MemcachedWorkload

        workload = MemcachedWorkload(
            system,
            num_buckets=config.num_buckets,
            elems_per_bucket=config.elems_per_bucket,
            value_bytes=config.value_bytes,
            seed=config.seed,
            request_keys=[],
        )
    else:
        from repro.workloads.udpecho import UdpEchoWorkload

        workload = UdpEchoWorkload(system, payload_bytes=config.payload_bytes)
    system.sim.run()  # quiesce: setup (the table fill) ends before load
    return system, workload


def _target_port(config: ServingConfig) -> int:
    if config.workload == "memcached":
        from repro.workloads.memcachedwl import SERVER_PORT

        return SERVER_PORT
    from repro.workloads.udpecho import ECHO_PORT

    return ECHO_PORT


def _make_schedule(config: ServingConfig, workload, rps: int):
    duration_ns = config.warmup_ns + config.measure_ns
    point_seed = config.point_seed(rps)
    times = arrival_times(config.arrival, float(rps), duration_ns, point_seed)
    if config.workload == "memcached":
        popularity = ZipfKeys(
            workload.table.keys, s=config.zipf_s, perm_seed=config.seed
        )

        def make_payload(reqid: int, key: Optional[bytes]) -> bytes:
            return b"Q" + pack_reqid(reqid) + b"GET " + key

    else:
        popularity = None
        pad = b"x" * max(0, config.payload_bytes - 9)

        def make_payload(reqid: int, key: Optional[bytes]) -> bytes:
            return b"Q" + pack_reqid(reqid) + pad

    return build_schedule(
        times,
        config.num_clients,
        make_payload,
        popularity=popularity,
        key_seed=point_seed + 17,
    )


# -- one fixed-RPS point -----------------------------------------------------


def memcached_reply_check(workload):
    """Reply validator for memcached serving: the value bytes must be
    exactly what the (shared) table holds for the requested key."""

    def check(record, payload: bytes) -> bool:
        return payload[HDR_BYTES:] == workload.table.get(record.key)

    return check


class _MeasureDropTap:
    """Pure ``net.drop`` observer: backlog-drop counts per measure
    window and per destination socket.  Computed directly in
    ``run_point_on`` rather than via a hub, so a point reports its drop
    windows whatever plans the caller has (or has not) attached."""

    __slots__ = ("registry", "t0", "window_ns", "windows", "total", "by_socket")

    def __init__(self, registry, t0: float, window_ns: float, nwin: int):
        self.registry = registry
        self.t0 = t0
        self.window_ns = window_ns
        self.windows: List[Dict[str, int]] = [{} for _ in range(nwin)]
        self.total = 0
        self.by_socket: Dict[str, int] = {}

    def __call__(self, reason, sock_id) -> None:
        if reason != "backlog":
            return
        index = int((self.registry.now() - self.t0) // self.window_ns)
        if 0 <= index < len(self.windows):
            key = str(sock_id)
            self.total += 1
            self.by_socket[key] = self.by_socket.get(key, 0) + 1
            window = self.windows[index]
            window[key] = window.get(key, 0) + 1


def run_point_on(
    system: System, workload, config: ServingConfig, rps: int, check_reply=None
) -> dict:
    """Run one fixed-RPS serving window on an already-built machine.

    This is the composition surface: chaos plans, GSan, or span tracers
    attached to ``system`` all ride along.  Returns the point's stats
    dict (measure-window only, plus whole-run lifecycle counts).
    """
    rps = int(rps)
    schedule = _make_schedule(config, workload, rps)
    dest = ("localhost", _target_port(config))
    fleet = ClientFleet(
        system, dest, schedule, config.num_clients,
        timeout_ns=config.timeout_ns, check_reply=check_reply,
    )
    lo, hi = config.warmup_ns, config.warmup_ns + config.measure_ns
    window_ns = config.report_window_ns
    nwin = max(1, int(math.ceil(config.measure_ns / window_ns - 1e-9)))
    # The point runs relative to the machine's current clock (building
    # the workload has already advanced it), so window origins are
    # offsets from the run start.
    run_start = system.now
    drop_tap = _MeasureDropTap(
        system.probes, run_start + lo, window_ns, nwin
    )
    system.probes.attach("net.drop", drop_tap)
    try:
        served = workload.serve_genesys(
            fleet.driver(),
            num_workgroups=config.num_workgroups,
            workgroup_size=config.workgroup_size,
            rx_backlog=config.rx_backlog,
        )
    finally:
        system.probes.get("net.drop").detach(drop_tap)
    elapsed = system.now - run_start
    window = [r for r in schedule if lo <= r.sched_ns < hi]
    completed = [r for r in window if r.status(config.timeout_ns) == "completed"]
    latencies = [r.latency_ns() for r in completed]
    offered_rps = len(window) / config.measure_ns * 1e9
    achieved_rps = len(completed) / config.measure_ns * 1e9
    completion = len(completed) / len(window) if window else 1.0
    latency = analysis.summarize(latencies)
    windows = []
    for k in range(nwin):
        wlo = lo + k * window_ns
        whi = min(hi, wlo + window_ns)
        span = whi - wlo
        rows = [r for r in window if wlo <= r.sched_ns < whi]
        done = [r for r in rows if r.status(config.timeout_ns) == "completed"]
        drops_in = drop_tap.windows[k]
        windows.append(
            {
                "t0_ns": wlo,
                "sent": len(rows),
                "completed": len(done),
                "completion": len(done) / len(rows) if rows else 1.0,
                "achieved_rps": len(done) / span * 1e9 if span > 0 else 0.0,
                "latency_ns": analysis.summarize(
                    [r.latency_ns() for r in done]
                ),
                "drops": {
                    "backlog": sum(drops_in.values()),
                    "by_socket": dict(sorted(drops_in.items())),
                },
            }
        )
    point = {
        "rps_target": rps,
        "offered_rps": offered_rps,
        "achieved_rps": achieved_rps,
        "completion": completion,
        "latency_ns": latency,
        "lifecycle": fleet.counts(),
        "served": served["served"],
        "net": system.kernel.net.stats(),
        "elapsed_ns": elapsed,
        "window_ns": window_ns,
        "windows": windows,
        "drops": {
            "backlog": drop_tap.total,
            "by_socket": dict(sorted(drop_tap.by_socket.items())),
        },
    }
    point["slo_ok"] = bool(
        window
        and latency["p99"] <= config.slo_p99_ns
        and completion >= config.slo_completion
    )
    return point


def run_point(config: ServingConfig, rps: int) -> dict:
    """Build a fresh machine and run one fixed-RPS point (also the
    farm job body of a sweep point)."""
    system, workload = build_target(config)
    return run_point_on(system, workload, config, rps)


# -- the sweep driver --------------------------------------------------------


def _passes(point: dict) -> bool:
    return bool(point["slo_ok"])


def _bisect_max_sustainable(
    config: ServingConfig,
    grid_points: List[dict],
) -> Tuple[float, List[dict]]:
    """Binary-search between the SLO pass/fail bracket from the grid.

    Returns ``(max_sustainable_rps, probe_points)``.  With no failing
    grid point the top of the grid is the (lower-bound) answer; with no
    passing point the answer is 0.
    """
    passing = [p["rps_target"] for p in grid_points if _passes(p)]
    failing = [p["rps_target"] for p in grid_points if not _passes(p)]
    if not passing:
        return 0.0, []
    lo = max(passing)
    above = [rps for rps in failing if rps > lo]
    if not above:
        return float(lo), []
    hi = min(above)
    probes: List[dict] = []
    for _ in range(config.bisect_iters):
        mid = (lo + hi) // 2
        if mid <= lo or mid >= hi:
            break
        point = run_point(config, mid)
        probes.append(point)
        if _passes(point):
            lo = mid
        else:
            hi = mid
    return float(lo), probes


def sweep(
    config: ServingConfig, rps_grid: Sequence[int], workers: int = 1
) -> dict:
    """Walk an RPS grid (farmed), bisect for the SLO knee, and return
    the ``BENCH_serving.json`` document (see :mod:`repro.serving.report`).

    Every point — serial or farmed, grid or bisection probe — runs on
    a freshly built machine, which is why worker count cannot change
    the curves.
    """
    from repro.serving import report

    grid = sorted({int(rps) for rps in rps_grid})
    if not grid:
        raise ValueError("rps_grid must contain at least one positive RPS")
    if grid[0] <= 0:
        raise ValueError(f"rps grid must be positive, got {grid[0]}")
    jobs = [
        Job(key=(rps,), fn=run_point, kwargs={"config": config, "rps": rps})
        for rps in grid
    ]
    merged = run_jobs(jobs, workers=workers)
    points = [result for _key, result in merged]
    max_rps, probes = _bisect_max_sustainable(config, points)
    return report.build(config, points, probes, max_rps)


# -- overload mode (repro.qos evaluation) ------------------------------------

#: Measured SLO knees of the seed stacks (see BENCH_serving.json);
#: overload curves default to sweeping multiples of these.
DEFAULT_KNEE = {"memcached": 110_000, "udp-echo": 130_000}

#: Offered-load multipliers for the overload curve: below, at, and
#: through 2-3x the knee — the regime where the unprotected stack's
#: goodput collapses.
DEFAULT_MULTIPLIERS = (0.5, 1.0, 1.5, 2.0, 3.0)


def default_knee(config: ServingConfig) -> int:
    return DEFAULT_KNEE[config.workload]


def default_overload_plan(config: ServingConfig):
    """The serving overload-control plan: CoDel-style sojourn policing
    on the server's bounded receive queue, so stale work is rejected at
    dequeue instead of served dead.  No GPU-side deadlines: the
    server's parked ``recvfrom`` loops are legitimately long-lived."""
    from repro.qos import QosPlan

    return QosPlan(sojourn_budget_ns=config.timeout_ns / 2)


def _overload_point_job(config: ServingConfig, rps: int, plan=None) -> dict:
    """Module-level farm job body: one overload point on a fresh
    machine, optionally with a QoS plan installed before load starts."""
    system, workload = build_target(config)
    controller = None
    if plan is not None and plan.active:
        from repro.qos import install_qos_plan

        controller = install_qos_plan(plan, system)
    point = run_point_on(system, workload, config, rps)
    if controller is not None:
        point["qos"] = controller.summary()
    return point


def overload_curve(
    config: ServingConfig,
    plan=None,
    knee_rps: Optional[int] = None,
    multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    workers: int = 1,
) -> dict:
    """Offered-vs-goodput curves through overload, baseline and QoS
    side by side in one document (``BENCH_overload.json``).

    Every offered-load point runs twice, each on a fresh machine: once
    bare (the collapsing baseline) and once with ``plan``
    installed.  Goodput is ``achieved_rps`` — replies within the
    client timeout.  The document's ``gate`` compares the QoS curve's
    goodput at ~2x the knee against its goodput at the knee.
    """
    from repro.serving import report

    if plan is None:
        plan = default_overload_plan(config)
    if knee_rps is None:
        knee_rps = default_knee(config)
    knee_rps = int(knee_rps)
    if knee_rps <= 0:
        raise ValueError(f"knee_rps must be positive, got {knee_rps}")
    grid = sorted({max(1, int(round(knee_rps * m))) for m in multipliers})
    jobs = []
    for rps in grid:
        jobs.append(Job(key=("base", rps), fn=_overload_point_job,
                        kwargs={"config": config, "rps": rps}))
        jobs.append(Job(key=("qos", rps), fn=_overload_point_job,
                        kwargs={"config": config, "rps": rps, "plan": plan}))
    merged = run_jobs(jobs, workers=workers)
    baseline = [result for key, result in merged if key[0] == "base"]
    qos_points = [result for key, result in merged if key[0] == "qos"]
    return report.build_overload(config, plan, knee_rps, baseline, qos_points)


def default_grid(config: ServingConfig) -> List[int]:
    """A coarse grid bracketing the stacks' measured capacity."""
    if config.workload == "memcached":
        return [50_000, 100_000, 150_000, 200_000, 300_000]
    return [50_000, 100_000, 200_000, 300_000, 400_000]
