"""Figure 15: memcached latency and throughput."""

from __future__ import annotations

from typing import Dict

from repro.experiments import ExperimentResult
from repro.system import System
from repro.workloads.base import WorkloadResult
from repro.workloads.memcachedwl import MemcachedWorkload

NAME = "fig15"
TITLE = "Figure 15: memcached GETs (1024 elems/bucket, 1KB values)"

PARAMS = dict(num_buckets=8, elems_per_bucket=1024, value_bytes=1024, num_requests=64)
SWEEP_OCCUPANCY = (64, 1024)


def run_variant(method: str, **overrides) -> WorkloadResult:
    params = dict(PARAMS)
    params.update(overrides)
    with System() as system:
        workload = MemcachedWorkload(system, **params)
        result = getattr(workload, method)()
    if not workload.verify(result.metrics["replies"]):
        raise AssertionError("memcached served wrong values")
    return result


def run_variants() -> Dict[str, WorkloadResult]:
    return {
        "cpu": run_variant("run_cpu"),
        "gpu-nosyscall": run_variant("run_gpu_nosyscall"),
        "genesys": run_variant("run_genesys"),
    }


def run_occupancy_sweep() -> Dict[int, tuple]:
    out = {}
    for occupancy in SWEEP_OCCUPANCY:
        cpu = run_variant("run_cpu", elems_per_bucket=occupancy)
        genesys = run_variant("run_genesys", elems_per_bucket=occupancy)
        out[occupancy] = (
            cpu.metrics["mean_latency_ns"],
            genesys.metrics["mean_latency_ns"],
        )
    return out


def run() -> ExperimentResult:
    results = run_variants()
    sweep = run_occupancy_sweep()
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["variant", "mean lat (us)", "p99 lat (us)", "throughput (req/s)"],
        [
            (
                name,
                f"{res.metrics['mean_latency_ns'] / 1000:.1f}",
                f"{res.metrics['p99_latency_ns'] / 1000:.1f}",
                f"{res.metrics['throughput_rps']:.0f}",
            )
            for name, res in results.items()
        ],
    )
    experiment.add_table(
        "Figure 15 sweep: mean GET latency (us) by bucket occupancy",
        ["elems/bucket", "cpu", "genesys", "gpu advantage"],
        [
            (occ, f"{cpu / 1000:.1f}", f"{gpu / 1000:.1f}", f"{cpu / gpu:.2f}x")
            for occ, (cpu, gpu) in sweep.items()
        ],
    )
    experiment.data = {"results": results, "sweep": sweep}
    return experiment
