"""One benchmark run of one workload.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Sets the workload up five times (here and in four fresh interpreters)
and reports the median as ``setup_s``.  Then it runs the workload's ops
round-robin until ``--seconds`` have passed and every op ran at least
once, checking each output.  With ``--trace 1`` it goes on to profile
one more pass under ``cProfile`` and reports the per-layer metrics
instead of the end-to-end ones.

Host time is reported at *reference speed*.  The vCPUs this runs on
change speed by 10-20% from second to second as neighbours load the
host, and the two vCPUs do not move together.  So while ops run, an
interval timer runs a fixed integer loop every 10 ms on the same vCPU
(the metronome).  Each op's time, less the metronome's, is scaled by
how long the loop took during that op against ``REF_LOOP_S``.

The last stdout line is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it holds the per-op details
``report.py`` aggregates.  The metric names and units are the ones
``BENCHMARK.json`` declares.  Exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import json
import os
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import layers  # noqa: E402
import workloads  # noqa: E402

#: Setups measured in fresh interpreters, besides this process's own.
SETUP_PROBES = 4
#: Time the reference loop takes at reference speed: about its median on
#: the 2-vCPU container the benchmark was written on.
REF_LOOP_S = 350e-6
TICK_S = 0.01
#: Fewer metronome ticks than this inside an op: use the latest ones.
MIN_TICKS = 3

_PROBE = (
    "import json, sys; sys.path.insert(0, {bench!r}); import run; "
    "print(json.dumps(run.timed_setup({name!r}, {{}})[1]))"
)


def probe_setup(name: str) -> dict:
    """Setup times of ``name`` measured in a fresh interpreter."""
    code = _PROBE.format(bench=str(BENCH_DIR), name=name)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return json.loads(done.stdout.splitlines()[-1])


def timed_setup(name: str, golden: dict):
    """Import and build ``name``: the workload, and each phase's
    reference-speed seconds."""
    with Metronome() as metronome:
        start = time.perf_counter()
        workload = workloads.make(name, golden)
        workload.load()
        loaded = time.perf_counter()
        workload.build()
        built = time.perf_counter()
    return workload, {
        "import_s": metronome.timed(start, loaded)[1],
        "build_s": metronome.timed(loaded, built)[1],
    }


def reference_loop() -> int:
    total = 0
    for i in range(5000):
        total += i * i % 7
    return total


class Metronome:
    """Times :func:`reference_loop` every ``TICK_S`` while active."""

    def __init__(self) -> None:
        #: ``(start, seconds)`` of every tick.
        self.ticks: list = []
        self._previous = None

    def tick(self, *_signal) -> None:
        start = time.perf_counter()
        reference_loop()
        self.ticks.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Metronome":
        for _ in range(2 * MIN_TICKS):
            self.tick()
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, start: float, end: float) -> tuple:
        """Host seconds from ``start`` to ``end`` less the ticks inside,
        raw and at reference speed."""
        inside = [seconds for tick, seconds in self.ticks if start <= tick < end]
        net = end - start - sum(inside)
        if len(inside) < MIN_TICKS:
            inside = [seconds for tick, seconds in self.ticks if tick < end][-2 * MIN_TICKS:]
        return net, net * REF_LOOP_S / statistics.fmean(inside)

    def speed_x(self) -> float:
        """Median CPU speed over the run, 1.0 being reference speed."""
        return REF_LOOP_S / statistics.median(seconds for _start, seconds in self.ticks)


class Run:
    """Op timings, checks and facts gathered over one run."""

    def __init__(self) -> None:
        self.wall: dict = {}
        self.ref: dict = {}
        self.facts: dict = {}
        self.failures: list = []
        self.attempted = 0
        self.failed = 0

    def op(self, key: str, call) -> tuple:
        """Run one op; its start and end times."""
        start = time.perf_counter()
        failures, facts = call()
        end = time.perf_counter()
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += failures
        self.facts.setdefault(key, facts)
        return start, end

    def measure(self, workload, seed: int, seconds: float) -> Metronome:
        deadline = time.perf_counter() + seconds
        with Metronome() as metronome:
            for key, call in workload.ops(seed):
                if len(self.wall) == len(workload.keys) and time.perf_counter() >= deadline:
                    break
                wall, ref = metronome.timed(*self.op(key, call))
                self.wall.setdefault(key, []).append(wall)
                self.ref.setdefault(key, []).append(ref)
        return metronome

    def profile_pass(self, workload, seed: int):
        """Run one pass under cProfile: its wall time and pstats table."""
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        for key, call in itertools.islice(workload.ops(seed), len(workload.keys)):
            self.op(key, call)
        profile.disable()
        return time.perf_counter() - start, pstats.Stats(profile).stats


def per_pass(times: dict) -> float:
    """Host seconds of one pass: each op's median, summed."""
    return sum(statistics.median(values) for values in times.values())


def end_to_end(run: Run, setups: list) -> dict:
    return {
        "wall_ref_s": per_pass(run.ref),
        "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, metronome: Metronome, setups: list, traced_s: float, stats: dict) -> dict:
    from repro.experiments import all_names

    metrics = {}
    for bucket, split in layers.split(stats, str(BENCH_DIR)).items():
        for field, value in split.items():
            metrics[f"layer.{bucket}.{field}"] = value
    engine = os.path.join("repro", "sim", "engine.py")
    events = sum(
        row[1] for (filename, _line, func), row in stats.items()
        if func == "_step" and filename.endswith(engine)
    )
    ref_s, wall_s = per_pass(run.ref), per_pass(run.wall)
    metrics["sim.events"] = events
    metrics["sim.host_ns_per_event"] = ref_s * 1e9 / events if events else 0.0
    metrics["host.wall_s"] = wall_s
    metrics["host.speed_x"] = metronome.speed_x()
    metrics["trace.overhead_x"] = traced_s / wall_s
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["setup.build_s"] = statistics.median(s["build_s"] for s in setups)
    for name in all_names():
        times = run.ref.get(name)
        metrics[f"exp.{name}.s"] = statistics.median(times) if times else 0.0
    facts = list(run.facts.values())
    metrics["gsan.violations"] = sum(
        f.get("gsan_violations", 0) + f.get("violating", 0) for f in facts
    )
    schedules = sum(f.get("schedules", 0) for f in facts)
    metrics["modelcheck.schedules"] = schedules
    metrics["modelcheck.pruned"] = sum(f.get("pruned", 0) for f in facts)
    metrics["modelcheck.host_ms_per_schedule"] = ref_s * 1e3 / schedules if schedules else 0.0
    metrics.update(serving_metrics(run.facts.get("window")))
    return metrics


def serving_metrics(facts) -> dict:
    """Simulated results of the run's first serving window (0 elsewhere)."""
    if facts is None:
        facts = {
            "lifecycle": {}, "core": {}, "net": {"drops": {}},
            "completion": 1.0, "goodput_rps": 0.0, "latency_count": 0,
            "p50_ns": 0.0, "p99_ns": 0.0,
        }
    life, core, net = facts["lifecycle"], facts["core"], facts["net"]
    metrics = {f"core.{k}": core.get(k, 0) for k in
               ("syscalls", "interrupts", "bundle_mean", "polled_scans", "sheds")}
    interrupts = core.get("interrupts", 0)
    metrics["core.syscalls_per_irq"] = core["syscalls"] / interrupts if interrupts else 0.0
    for reason in ("capacity", "policy", "expired"):
        metrics[f"net.drops.{reason}"] = net["drops"].get(reason, 0)
    metrics["net.rx_backlog_peak"] = net.get("rx_backlog_peak", 0)
    for k in ("late", "timeout", "rejected", "bad_replies"):
        metrics[f"serving.{k}"] = life.get(k, 0)
    metrics["serving.latency_count"] = facts["latency_count"]
    metrics["serving.goodput_rps"] = facts["goodput_rps"]
    metrics["serving.p50_us"] = facts["p50_ns"] / 1e3
    metrics["serving.p99_us"] = facts["p99_ns"] / 1e3
    metrics["serving.fail_frac"] = 1.0 - facts["completion"]
    return metrics


def declared_units(trace: bool) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_units(bool(args.trace))
    workload, setup = timed_setup(args.workload, workloads.load_golden())
    setups = [setup] + [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    run = Run()
    metronome = run.measure(workload, args.seed, args.seconds)
    if args.trace:
        traced_s, stats = run.profile_pass(workload, args.seed)
        metrics = per_layer(run, metronome, setups, traced_s, stats)
    else:
        metrics = end_to_end(run, setups)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    for failure in run.failures:
        print(f"CHECK FAIL: {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "op_wall_s": run.wall,
        "op_ref_s": run.ref,
        "setups": setups,
        "facts": run.facts,
    }))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
