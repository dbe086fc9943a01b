"""The five pinned workloads and the checks on their outputs.

A workload is a cycle of *ops*, each one timed call into ``repro``.  One
*pass* runs every op key once (``keys``); ``wall_ref_s`` is the host time of
one pass, each op taken as its median over the run.  Every op checks
its own output and returns ``(failures, facts)``: the checks that failed
and the simulated results the goldens and the per-layer report use.

* ``suite``: the 20 registry experiments in registry order, each render
  digest checked against the goldens.
* ``observed``: five experiments under SpanTracer + MetricsHub + GSan,
  digests checked against the same goldens, zero GSan violations.
* ``serve-memcached``: 25 ms open-loop windows at 80k RPS.
* ``overload-qos``: 25 ms windows at 220k RPS under the overload plan.
* ``modelcheck``: DPOR exploration of fig2 under four pinned fault plans.

Only the serving workloads draw inputs from the seed: window ``r`` of a
run with seed ``s`` uses ``ServingConfig(seed=s * 1000 + r)``.  The
others run pinned inputs, so every run does identical work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

NAMES = ("suite", "serve-memcached", "overload-qos", "observed", "modelcheck")
OBSERVED = ("fig2", "fig7", "fig8", "fig13a", "fig15")
SERVING_WINDOW_NS = 25e6
SERVE_RPS = 80_000
OVERLOAD_RPS = 220_000
#: Under the overload plan, goodput must keep this share of the knee.
OVERLOAD_MIN_GOODPUT = 0.85
MODELCHECK_PLAN_SEEDS = (1, 2, 3, 4)
MODELCHECK_SCHEDULES = 32

Result = Tuple[List[str], dict]
Op = Tuple[str, Callable[[], Result]]


def render_digest(text: str) -> str:
    """sha256 of a render, with object addresses (fig16) normalised."""
    return hashlib.sha256(re.sub(r"0x[0-9a-f]+", "0x", text).encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


def _golden_mismatch(label: str, golden: Optional[dict], facts: dict) -> List[str]:
    if golden is not None and golden != facts:
        return [f"{label}: simulated results differ from golden"]
    return []


class Experiments:
    """Registry experiments, bare (``suite``) or under every observer."""

    def __init__(self, names: Optional[Tuple[str, ...]], golden: dict):
        self.observed = names is not None
        self.keys = names
        self.digests = golden.get("experiments", {})

    def load(self) -> None:
        import repro.experiments as experiments
        from repro.metrics import MetricsHubPlan
        from repro.probes import clear_global_plan, install_global_plan
        from repro.sanitizers.gsan import GSanPlan
        from repro.system import System
        from repro.tracing.spans import install_tracer

        if self.keys is None:
            self.keys = tuple(experiments.all_names())
        for name in self.keys:
            experiments.load(name)
        self._experiments = experiments
        self._plans = (MetricsHubPlan, GSanPlan, install_tracer)
        self._install, self._clear = install_global_plan, clear_global_plan
        self._System = System

    def build(self) -> None:
        if self.observed:
            self._observe(self._System)
        else:
            self._System()

    def ops(self, seed: int) -> Iterator[Op]:
        for name in itertools.cycle(self.keys):
            yield name, lambda name=name: self.run(name)

    def run(self, name: str) -> Result:
        """Run and render one experiment; check its digest."""
        def render() -> str:
            return self._experiments.run(name).render()

        if self.observed:
            text, violations = self._observe(render)
        else:
            text, violations = render(), 0
        digest = render_digest(text)
        failures = []
        if digest != self.digests.get(name):
            failures.append(f"{name}: render digest {digest[:12]} differs from golden")
        if violations:
            failures.append(f"{name}: GSan reported {violations} violations")
        return failures, {"digest": digest, "gsan_violations": violations}

    def _observe(self, body: Callable):
        """Call ``body`` with every observer attached to each System built."""
        metrics_plan_cls, gsan_plan_cls, install_tracer = self._plans
        metrics_plan, gsan_plan = metrics_plan_cls(), gsan_plan_cls()

        def plan(registry) -> None:
            install_tracer(registry)
            metrics_plan(registry)
            gsan_plan(registry)

        self._install(plan)
        try:
            result = body()
        finally:
            self._clear()
        return result, len(gsan_plan.finish())


class Serving:
    """Open-loop memcached windows, optionally under the overload plan."""

    keys = ("window",)

    def __init__(self, name: str, rps: int, qos: bool, golden: dict):
        self.name = name
        self.rps = rps
        self.qos = qos
        self.golden = golden.get(name, {})

    def load(self) -> None:
        from repro.qos import install_qos_plan
        from repro.serving import ServingConfig, run_point_on
        from repro.serving.sweep import (
            DEFAULT_KNEE,
            build_target,
            default_overload_plan,
            memcached_reply_check,
        )

        self._config, self._build_target = ServingConfig, build_target
        self._run_point_on, self._reply_check = run_point_on, memcached_reply_check
        self._qos = (install_qos_plan, default_overload_plan)
        self._knee = DEFAULT_KNEE["memcached"]

    def build(self) -> None:
        self._build_target(self._config(measure_ns=SERVING_WINDOW_NS))

    def ops(self, seed: int) -> Iterator[Op]:
        for window in itertools.count():
            yield "window", lambda s=seed * 1000 + window: self.window(s)

    def window(self, config_seed: int) -> Result:
        """Serve one window on a fresh machine and check it."""
        config = self._config(measure_ns=SERVING_WINDOW_NS, seed=config_seed)
        system, workload = self._build_target(config)
        if self.qos:
            install_qos_plan, default_overload_plan = self._qos
            install_qos_plan(default_overload_plan(config), system)
        point = self._run_point_on(
            system, workload, config, self.rps, check_reply=self._reply_check(workload)
        )
        facts = _serving_facts(point, system.genesys.stats())
        label = f"{self.name} seed {config_seed}"
        failures = []
        life = facts["lifecycle"]
        if life["bad_replies"] or life["dup_replies"]:
            failures.append(f"{label}: bad or duplicate replies {life}")
        if life["sent"] != sum(life[k] for k in ("completed", "late", "timeout", "rejected")):
            failures.append(f"{label}: requests left unclassified {life}")
        if self.qos:
            if facts["goodput_rps"] < OVERLOAD_MIN_GOODPUT * self._knee:
                failures.append(f"{label}: goodput collapsed to {facts['goodput_rps']}")
        elif facts["completion"] < 0.99 or any(facts["net"]["drops"].values()):
            failures.append(f"{label}: requests lost below the knee")
        failures += _golden_mismatch(label, self.golden.get(str(config_seed)), facts)
        return failures, facts


def _serving_facts(point: dict, stats: dict) -> dict:
    latency = point["latency_ns"]
    return {
        "lifecycle": point["lifecycle"],
        "completion": point["completion"],
        "goodput_rps": point["achieved_rps"],
        "latency_count": latency["count"],
        "p50_ns": latency["p50"],
        "p99_ns": latency["p99"],
        "core": {
            "syscalls": stats["syscalls_completed"],
            "interrupts": stats["interrupts_sent"],
            "bundle_mean": stats["mean_bundle_size"],
            "polled_scans": stats["polled_scans"],
            "sheds": stats["syscalls_shed"],
        },
        "net": {
            "drops": point["net"]["drops"],
            "rx_backlog_peak": point["net"]["rx_backlog_peak"],
        },
    }


class ModelCheck:
    """fig2 schedule exploration under pinned fault plans, GSan as oracle."""

    keys = tuple(f"plan{seed}" for seed in MODELCHECK_PLAN_SEEDS)

    def __init__(self, golden: dict):
        self.golden = golden.get("modelcheck", {})

    def load(self) -> None:
        from repro.modelcheck import Bounds, build_scenario, explore
        from repro.modelcheck.scenarios import resolve_plan

        self._bounds = Bounds(MODELCHECK_SCHEDULES, 8, 2)
        self._explore, self._resolve_plan = explore, resolve_plan
        self._build_scenario = build_scenario

    def build(self) -> None:
        self._build_scenario("fig2", profile="fig2", seed=1).build()

    def ops(self, seed: int) -> Iterator[Op]:
        for plan_seed in itertools.cycle(MODELCHECK_PLAN_SEEDS):
            yield f"plan{plan_seed}", lambda s=plan_seed: self.explore(s)

    def explore(self, plan_seed: int) -> Result:
        """Explore fig2 under one seeded fault plan and check the verdict."""
        report = self._explore(
            "fig2",
            plan=self._resolve_plan(profile="fig2", seed=plan_seed).as_dict(),
            bounds=self._bounds,
            workers=1,
        )
        facts = {
            "schedules": report.schedules,
            "blocked": report.blocked,
            "pruned": report.pruned,
            "violating": len(report.violating),
            "visited": hashlib.sha256(repr(report.visited).encode()).hexdigest(),
        }
        label = f"modelcheck plan {plan_seed}"
        failures = []
        if report.violating:
            failures.append(f"{label}: {len(report.violating)} violating schedules")
        if report.schedules != MODELCHECK_SCHEDULES:
            failures.append(f"{label}: explored {report.schedules} schedules")
        failures += _golden_mismatch(label, self.golden.get(str(plan_seed)), facts)
        return failures, facts


def make(name: str, golden: dict):
    """The workload registered under ``name``, checked against ``golden``."""
    if name == "suite":
        return Experiments(None, golden)
    if name == "observed":
        return Experiments(OBSERVED, golden)
    if name == "serve-memcached":
        return Serving(name, SERVE_RPS, False, golden)
    if name == "overload-qos":
        return Serving(name, OVERLOAD_RPS, True, golden)
    if name == "modelcheck":
        return ModelCheck(golden)
    raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")
