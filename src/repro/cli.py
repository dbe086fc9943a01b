"""``python -m repro <verb>``: the one command line.

Every verb is built from the same option groups:

* experiment names, checked against ``repro.experiments.REGISTRY``;
* the serving group (``--workload``, ``--clients``, ``--measure-us``,
  ...), whose defaults are ``ServingConfig()``'s;
* the observer specs, ``--attach SPEC``, applied by one attach plan to
  every System a run builds;
* ``--seeds`` (``1,2,5`` or ``1:6``) and ``--workers`` (default: the
  CPUs this process may run on for chaos, overload and pytest; 1 for
  the verbs that farming does not speed up).

Verbs::

    list [experiments|tracepoints|profiles|scenarios]
    run NAME...|--all [--attach SPEC]...
    serve --rps N [--attach SPEC]...      one fixed-RPS serving point
    record NAME... / gate [NAME...]       latency baselines and the gate
    lint                                  static lint
    corpus                                the seeded-bug corpus, certified
    explore / replay                      schedule model checking
    chaos [--workers N]                   the fault-injection matrix
    pytest                                the test suite, sharded
    sweep / overload / report             serving curves and their gates

Attach specs (``--attach``, repeatable)::

    counter:PATTERN[:key=N]   count fires; PATTERN is a name, prefix*
                              glob, or *; key=N also counts per value
                              of fire argument N
    hist:PATTERN[:value=N]    log2 histogram over fire argument N
                              (default 0); fires with no number there
                              are skipped
    rate:PATTERN[:bin_ns]     fires/second in bin_ns windows (default
                              10000)
    spans                     per-invocation span tracer; prints the
                              span report
    metrics[:window_us]       windowed metrics hub over the full
                              catalog
    gsan                      the happens-before sanitizer; a run it
                              finds a violation in exits 1

``counter``, ``hist`` and ``rate`` each install one metrics hub, labelled
with the spec, whose rows :func:`repro.metrics.collectors.probe_specs`
makes: one per matching tracepoint.  An argument index a matched
tracepoint does not have is bad input.

``run`` (of one experiment) and ``serve`` report what they observed in
three outputs: the text they print (the span report, every hub's
final metrics frame, and GSan's violations and event count), one
Perfetto trace of every attached program's tracks (``--tef PATH``),
and one JSON document (``--json PATH``, schema 4) holding
``experiment``, ``systems`` (one probe snapshot per System: tracepoint
hits and each program's snapshot, a metrics hub's
with its windowed ``series``, GSan's with its ``events`` and
``violations``), ``spans`` (the span statistics, when ``spans`` is
attached) and, from ``serve``, the serving ``point``.

Bad input exits 2 with an ``error:`` line; a failed check exits 1.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro import experiments
from repro.faults.chaos import PROFILES
from repro.metrics.collectors import probe_specs
from repro.metrics.hub import (
    DEFAULT_WINDOW_NS,
    MetricsHub,
    MetricsHubPlan,
    metrics_hubs,
)
from repro.modelcheck.certificate import (
    certify,
    load_certificate,
    render_certificate,
    replay,
    save_certificate,
)
from repro.modelcheck.corpus import check_corpus
from repro.modelcheck.explore import Bounds, explore
from repro.modelcheck.scenarios import build_scenario, resolve_plan, scenario_names
from repro.modelcheck.schedule import ScheduleError
from repro.probes.exporters import metrics_snapshot
from repro.probes.tracepoints import ProbeRegistry, attached
from repro.runfarm import default_workers, merge_reports, run_chaos_matrix, shard
from repro.sanitizers.gsan import GSanPlan
from repro.sanitizers.lint import run_lint
from repro.serving import report as serving_report
from repro.serving.arrivals import KINDS, ArrivalSpec
from repro.serving.sweep import (
    DEFAULT_MULTIPLIERS,
    WORKLOADS,
    ServingConfig,
    build_target,
    default_grid,
    default_knee,
    memcached_reply_check,
    overload_curve,
    run_point_on,
    sweep,
)
from repro.system import System
from repro.traceviz import chrome_trace, program_tracks
from repro.tracing import analysis
from repro.tracing.gate import (
    DEFAULT_DIR,
    baseline_path,
    build_baseline,
    gate_experiment,
    recorded_experiments,
    write_baseline,
)
from repro.tracing.spans import InvocationTrace, SpanTracer

#: The package root the default lint run covers (``src/repro``).
LINT_ROOT = Path(__file__).resolve().parent

Args = argparse.Namespace
N = TypeVar("N", int, float)
T = TypeVar("T")


class UsageError(argparse.ArgumentTypeError, ValueError):
    """Bad command-line input.  Raised by an argparse ``type`` or by a
    verb; either way the user sees an ``error:`` line and exit code 2."""


# -- value parsers (argparse ``type=``) --------------------------------------


def _bounded(cast: Callable[[str], N], low: N, strict: bool = False) -> Callable[[str], N]:
    """``cast(text)``, finite and at least ``low`` (above it when ``strict``)."""

    def parse(text: str) -> N:
        try:
            value = cast(text)
        except ValueError:
            raise UsageError(f"{text!r} is not a number") from None
        if not math.isfinite(value):
            raise UsageError(f"{text!r} is not a finite number")
        if not (value > low if strict else value >= low):
            raise UsageError(f"{text!r} must be {'>' if strict else '>='} {low}")
        return value

    return parse


POSITIVE_INT = _bounded(int, 0, strict=True)
NON_NEGATIVE_INT = _bounded(int, 0)
POSITIVE = _bounded(float, 0.0, strict=True)
NON_NEGATIVE = _bounded(float, 0.0)


def fraction(text: str) -> float:
    """A number in [0, 1]."""
    value = NON_NEGATIVE(text)
    if value > 1.0:
        raise UsageError(f"{text!r} must be <= 1")
    return value


def _one_of(what: str, known: Sequence[str]) -> Callable[[str], str]:
    """A name from ``known``."""

    def parse(name: str) -> str:
        if name not in known:
            raise UsageError(f"unknown {what} {name!r}; choose from {', '.join(known)}")
        return name

    return parse


def _unique(values: List[T], text: str) -> List[T]:
    """``values`` parsed from ``text``, refused if one repeats: a run
    keyed by it would run twice under one key."""
    repeated = [value for i, value in enumerate(values) if value in values[:i]]
    if repeated:
        names = ", ".join(map(str, dict.fromkeys(repeated)))
        raise UsageError(f"{names} repeated in {text!r}")
    return values


def _list_of(item: Callable[[str], str]) -> Callable[[str], List[str]]:
    """A comma-separated list of distinct entries, each parsed by ``item``."""

    def parse(text: str) -> List[str]:
        names = [item(name.strip()) for name in text.split(",") if name.strip()]
        return _unique(names, text)

    return parse


experiment_name = _one_of("experiment", experiments.all_names())


def seeds(text: str) -> List[int]:
    """``1,2,5`` or ``1:6`` (half-open range), or a mix of both, each
    seed once.  0 is refused: ``DeterministicRandom(0)`` starts from the
    state of seed 1, so it would silently rerun seed 1."""
    out: List[int] = []
    try:
        for part in filter(None, map(str.strip, text.split(","))):
            lo, sep, hi = part.partition(":")
            out.extend(range(int(lo), int(hi)) if sep else [int(lo)])
    except ValueError:
        raise UsageError(f"bad seeds {text!r}: expected e.g. 1,2,5 or 1:6") from None
    if not out:
        raise UsageError(f"no seeds in {text!r}")
    if 0 in out:
        raise UsageError(f"seed 0 in {text!r} reruns seed 1")
    return _unique(out, text)


def _existing(test: Callable[[str], bool], what: str) -> Callable[[str], str]:
    """A path that ``test`` accepts.  Called by the verb, not by argparse,
    so documented commands parse before their input files exist."""

    def check(path: str) -> str:
        if not test(path):
            raise UsageError(f"no such {what}: {path!r}")
        return path

    return check


existing_file = _existing(os.path.isfile, "file")
existing_path = _existing(os.path.exists, "file or directory")


@dataclass(frozen=True)
class AttachSpec:
    """One parsed ``--attach`` value (grammar in the module docstring)."""

    text: str
    kind: str
    target: str = ""
    #: key=N (counter), value=N (hist), bin_ns (rate), window_ns (metrics).
    number: Optional[float] = None


def attach_spec(text: str) -> AttachSpec:
    try:
        return _parse_attach(text)
    except UsageError as err:
        raise UsageError(f"{text!r}: {err}") from None


def _parse_attach(text: str) -> AttachSpec:
    kind, _, rest = text.partition(":")
    target, _, option = rest.partition(":")
    if kind in ("spans", "gsan"):
        if rest not in ("", "*"):
            raise UsageError(f"{kind} takes no target")
        return AttachSpec(text, kind)
    if kind == "metrics":
        return AttachSpec(text, kind, number=POSITIVE(rest) * 1000.0 if rest else None)
    if kind not in ("counter", "hist", "rate"):
        raise UsageError(f"unknown kind {kind!r} (counter|hist|rate|spans|metrics|gsan)")
    if not target:
        raise UsageError(f"expected {kind}:TARGET")
    if kind == "rate":
        return AttachSpec(text, kind, target, POSITIVE_INT(option) if option else None)
    key = "key=" if kind == "counter" else "value="
    if option and not option.startswith(key):
        raise UsageError(f"{kind} option must be {key}N")
    return AttachSpec(
        text, kind, target, NON_NEGATIVE_INT(option[len(key):]) if option else None
    )


# -- the attach plan ---------------------------------------------------------


class AttachPlan:
    """Every ``--attach`` spec of one run as one attach plan.

    Each System built under ``with attached(plan):`` gets all of them in
    command-line order; the plan keeps each registry for the report.
    A spec naming an unknown tracepoint, or an argument index past a
    tracepoint's arguments, raises :class:`UsageError` at the first
    System, before it runs.
    """

    def __init__(self, specs: Sequence[AttachSpec] = ()) -> None:
        self.specs = list(specs)
        self.kinds = {spec.kind for spec in self.specs}
        self.hub_plans = {
            spec: MetricsHubPlan(window_ns=spec.number or DEFAULT_WINDOW_NS)
            for spec in self.specs
            if spec.kind == "metrics"
        }
        self.gsan = GSanPlan()
        self.registries: List[ProbeRegistry] = []

    def __call__(self, registry: ProbeRegistry) -> None:
        self.registries.append(registry)
        for spec in self.specs:
            try:
                self._attach(registry, spec)
            except (KeyError, ValueError) as err:
                raise UsageError(f"--attach {spec.text!r}: {err.args[0]}") from None

    def _attach(self, registry: ProbeRegistry, spec: AttachSpec) -> None:
        if spec.kind == "spans":
            SpanTracer(registry).install()
        elif spec.kind == "gsan":
            self.gsan(registry)
        elif spec.kind == "metrics":
            self.hub_plans[spec](registry)
        else:
            rate = spec.kind == "rate"
            arg = None if rate or spec.number is None else int(spec.number)
            rows = probe_specs(registry, spec.kind, spec.target, arg)
            window_ns = (spec.number if rate else None) or DEFAULT_WINDOW_NS
            MetricsHub(window_ns, spec.text, catalog=rows).install(registry)

    @property
    def hubs(self) -> List[MetricsHub]:
        """Every metrics hub on the run's Systems, probe specs' included."""
        return [
            hub for registry in self.registries for hub in metrics_hubs(registry)
        ]

    @property
    def traces(self) -> List[InvocationTrace]:
        return [
            trace
            for registry in self.registries
            for program in registry.programs
            if isinstance(program, SpanTracer)
            for trace in program.completed
        ]


#: Schema of the ``--json`` document.
JSON_SCHEMA = 4


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _report(
    args: Args, plan: AttachPlan, title: str, point: Optional[dict] = None
) -> bool:
    """Print what the attached observers saw; write the files asked for.
    Returns False if GSan found a violation."""
    traces = plan.traces
    if "spans" in plan.kinds:
        print(analysis.render_report(traces, title=title))
    for hub in plan.hubs:
        print(hub.render_frame(title))
        print()
    violations = plan.gsan.finish()
    for violation in violations:
        print(violation.render())
        print()
    if "gsan" in plan.kinds:
        print(
            f"GSan — {title}: {plan.gsan.events} events checked on "
            f"{len(plan.gsan.sanitizers)} system(s), {len(violations)} violation(s)"
        )
    if args.json:
        document = {
            "schema": JSON_SCHEMA,
            "experiment": title,
            "systems": [metrics_snapshot(registry) for registry in plan.registries],
        }
        if "spans" in plan.kinds:
            document["spans"] = {
                "invocations": len(traces),
                "stages": analysis.stage_stats(traces),
                "end_to_end": analysis.e2e_stats(traces),
                "by_syscall": analysis.by_key(traces, lambda t: t.name),
                "critical_path": analysis.critical_path(traces),
            }
        if point is not None:
            document["point"] = point
        _write(args.json, json.dumps(document, indent=2, sort_keys=True) + "\n")
    if args.tef:
        programs = [p for registry in plan.registries for p in registry.programs]
        trace = chrome_trace(
            program_tracks(programs),
            {"generator": "repro.tracing (GENESYS reproduction)",
             "invocations": len(traces)},
        )
        _write(args.tef, json.dumps(trace))
    return not violations


# -- verbs -------------------------------------------------------------------


def _cmd_list(args: Args) -> int:
    if args.target == "experiments":
        print("available experiments:")
        for name in experiments.all_names():
            print(f"  {name:<18} {getattr(experiments.load(name), 'TITLE', '')}")
    elif args.target == "tracepoints":
        for name, info in System().probes.catalogue().items():
            print(f"{name:<26} ({', '.join(info['args'])})  {info['doc']}")
    elif args.target == "profiles":
        print(f"{'experiment':<12} {'fault classes':<52} recovery")
        print("-" * 100)
        for name, plan in PROFILES.items():
            classes = ",".join(plan.active_classes()) or "-"
            watchdog = (
                f"watchdog={plan.watchdog_period_ns:g}ns"
                if plan.watchdog_period_ns else "watchdog=off"
            )
            slot = (
                f"slot_timeout={plan.slot_timeout_ns:g}ns"
                if plan.slot_timeout_ns else "slot_timeout=off"
            )
            print(f"{name:<12} {classes:<52} {watchdog} {slot}")
    else:
        print("\n".join(scenario_names()))
    return 0


def _cmd_run(args: Args) -> int:
    names = experiments.all_names() if args.all else args.names
    if not names:
        raise UsageError("name one or more experiments, or pass --all")
    if len(names) > 1 and (args.json or args.tef):
        raise UsageError("--json and --tef report one run; name one experiment")
    clean = True
    for name in names:
        plan = AttachPlan(args.attach)
        start = time.time()
        with attached(plan):
            result = experiments.run(name)
        if not args.quiet:
            print(result.render())
        if plan.specs and not plan.registries:
            print(f"warning: {name} built no System; nothing was observed",
                  file=sys.stderr)
        clean = _report(args, plan, name) and clean
        print(f"[{name}: {time.time() - start:.1f}s wall]\n")
    return 0 if clean else 1


def _serving_config(args: Args) -> ServingConfig:
    try:
        return _build_serving_config(args)
    except ValueError as err:  # ArrivalSpec/ServingConfig validation
        raise UsageError(str(err)) from None


def _build_serving_config(args: Args) -> ServingConfig:
    return ServingConfig(
        workload=args.workload,
        arrival=ArrivalSpec(
            kind=args.arrival,
            on_fraction=args.on_fraction,
            period_ns=args.period_ns,
        ),
        zipf_s=args.zipf_s,
        seed=args.seed,
        num_clients=args.clients,
        timeout_ns=args.timeout_us * 1e3,
        warmup_ns=args.warmup_us * 1e3,
        measure_ns=args.measure_us * 1e3,
        report_window_ns=args.window_us * 1e3,
        num_workgroups=args.workgroups,
        workgroup_size=args.workgroup_size,
        rx_backlog=args.rx_backlog or None,
        slo_p99_ns=args.slo_p99_us * 1e3,
        slo_completion=args.slo_completion,
    )


def _serve_point(args: Args, plan: AttachPlan) -> Tuple[str, dict]:
    """Run one fixed-RPS point under ``plan``: its summary line and stats."""
    config = _serving_config(args)
    with attached(plan):
        system, workload = build_target(config)
    check = memcached_reply_check(workload) if config.workload == "memcached" else None
    point = run_point_on(system, workload, config, args.rps, check_reply=check)
    latency = point["latency_ns"]
    return (
        f"{config.workload} @ {args.rps} RPS ({config.arrival.kind}): "
        f"offered {point['offered_rps']:.0f}, achieved "
        f"{point['achieved_rps']:.0f} ({point['completion']:.3f}), "
        f"p50/p95/p99 = {latency['p50'] / 1e3:.1f}/"
        f"{latency['p95'] / 1e3:.1f}/{latency['p99'] / 1e3:.1f} us, "
        f"SLO {'ok' if point['slo_ok'] else 'MISS'}"
    ), point


def _cmd_serve(args: Args) -> int:
    plan = AttachPlan(args.attach)
    summary, point = _serve_point(args, plan)
    if not args.quiet:
        print(summary)
    return 0 if _report(args, plan, "serving", point) else 1


def _traces(name: str) -> List[InvocationTrace]:
    plan = AttachPlan([attach_spec("spans")])
    with attached(plan):
        experiments.run(name)
    return plan.traces


def _cmd_record(args: Args) -> int:
    for name in args.names:
        traces = _traces(name)
        if not traces:
            raise UsageError(f"{name!r} traced no invocations; nothing to record")
        baseline = build_baseline(name, traces)
        path = write_baseline(args.dir, baseline)
        print(f"recorded {name}: {baseline['invocations']} invocations -> {path}")
    return 0


def _cmd_gate(args: Args) -> int:
    names = args.names or recorded_experiments(args.dir)
    if not names:
        raise UsageError(f"no baselines under {args.dir!r}; run `record` first")
    for name in names:
        if not os.path.isfile(baseline_path(args.dir, name)):
            raise UsageError(f"no baseline for {name!r} under {args.dir!r}")
    passed = True
    for name in names:
        result = gate_experiment(name, _traces(name), args.dir)
        print(result.render())
        passed = passed and result.passed
    print("gate:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


def _cmd_lint(args: Args) -> int:
    paths = [Path(existing_path(p)) for p in args.paths] or [LINT_ROOT]
    findings = run_lint(paths)
    if args.json:
        print(json.dumps({
            "findings": [
                {"code": f.code, "path": f.path, "line": f.line, "message": f.message}
                for f in findings
            ],
            "ok": not findings,
        }, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        label = ", ".join(str(p) for p in paths)
        if findings:
            print(f"repro.lint: {len(findings)} finding(s) in {label}")
        else:
            print(f"repro.lint: clean ({label})")
    return 1 if findings else 0


def _write_cert(cert: dict, cert_dir: str, stem: str) -> str:
    os.makedirs(cert_dir, exist_ok=True)
    path = os.path.join(cert_dir, f"{stem}.json")
    save_certificate(cert, path)
    return path


def _cmd_corpus(args: Args) -> int:
    rows = check_corpus()
    for row in rows:
        if row["certificate"] is not None:
            row["certificate_path"] = _write_cert(
                row["certificate"], args.cert_dir, row["bug"]
            )
        if not args.json:
            where = (
                f"found in {row['schedules']} schedule(s), {row['pruned']} pruned"
                if row["ordering"] else "hit on FIFO"
            )
            print(
                f"{'ok  ' if row['ok'] else 'FAIL'} {row['bug']}: "
                f"{row['expected_rule']} {where}"
                + (f" -> {row['certificate_path']}" if row["certificate"] else "")
            )
    caught = sum(row["ok"] for row in rows)
    if args.json:
        print(json.dumps({"bugs": rows, "ok": caught == len(rows)}, indent=2))
    else:
        print(
            f"seeded-bug corpus: {caught}/{len(rows)} caught, each with a "
            f"replayable certificate"
        )
    return 0 if caught == len(rows) else 1


def _cmd_explore(args: Args) -> int:
    plan = resolve_plan(profile=args.profile, seed=args.seed)
    plan_doc = plan.as_dict() if plan is not None else None
    try:
        build_scenario(args.scenario, plan=plan_doc, seed=args.seed)
    except ValueError as err:  # a micro scenario takes no fault profile
        raise UsageError(str(err)) from None
    bounds = Bounds(
        max_schedules=args.schedules,
        max_depth=args.depth,
        max_preemptions=args.preemptions,
    )
    report = explore(
        args.scenario, plan=plan_doc, seed=args.seed, bounds=bounds,
        workers=args.workers,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"gmc explore {args.scenario}: {report.schedules} schedule(s) "
            f"visited, {report.pruned} pruned"
            f"{' (budget truncated)' if report.truncated else ''}, "
            f"{len(report.violating)} violating"
        )
    if not report.violating:
        return 0
    for number, finding in enumerate(report.violating):
        cert, _attempts = certify(
            args.scenario, finding["choices"], finding["rules"],
            plan=plan_doc, profile=args.profile, seed=args.seed,
        )
        path = _write_cert(cert, args.cert_dir, f"{args.scenario}-{number}")
        if not args.json:
            print(f"violating schedule -> {path}")
            for line in finding["violations"]:
                print(line)
    return 1


def _cmd_replay(args: Args) -> int:
    existing_file(args.certificate)
    try:
        cert = load_certificate(args.certificate)
    except json.JSONDecodeError as err:
        raise UsageError(f"{args.certificate!r} is not JSON: {err}") from None
    except ValueError as err:  # names the path and what does not fit
        raise UsageError(str(err)) from None
    try:
        result = replay(cert)
    except ScheduleError as err:  # a choice the run never offers
        raise UsageError(f"{args.certificate}: {err}") from None
    if args.json:
        out = dict(result)
        out["choices"] = [list(pair) for pair in out["choices"]]
        print(json.dumps(out, indent=2, default=str))
    else:
        print(render_certificate(cert, result))
    return 2 if result["ok"] else 0  # 0: bug reproduced; 2: clean run


def _cmd_chaos(args: Args) -> int:
    start = time.perf_counter()
    results = run_chaos_matrix(
        args.experiments, args.seeds, workers=args.workers,
        intensity=args.intensity,
    )
    wall = time.perf_counter() - start
    summary = merge_reports(results)
    summary["wall_s"] = round(wall, 3)
    summary["workers"] = args.workers
    for (name, seed), report in results:
        print(
            f"  {name:<10} seed={seed:<4} {'ok' if report['ok'] else 'FAIL':<5} "
            f"injected={report['injected']} gsan_events={report['gsan_events']}"
        )
        for violation in report["violations"]:
            print(f"      {violation}")
    print(
        f"chaos matrix: {summary['cells']} cells, {summary['ok']} ok, "
        f"{summary['failed']} failed on {args.workers} worker(s) in {wall:.2f}s"
    )
    if args.json:
        cells = [report for _, report in results]
        _write(args.json, json.dumps({"summary": summary, "cells": cells}, indent=2))
    return 0 if summary["failed"] == 0 else 1


def _cmd_pytest(args: Args) -> int:
    files = sorted(glob.glob(os.path.join("tests", "test_*.py")))
    if not files:
        raise UsageError("no test files under 'tests'")
    shards = [s for s in shard(files, args.workers) if s]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = os.path.abspath("src") + (os.pathsep + existing if existing else "")
    start = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", *args.pytest_args, *shard_files],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
        )
        for shard_files in shards
    ]
    failed = 0
    for index, proc in enumerate(procs):
        output, _ = proc.communicate()
        tail = [line for line in output.strip().splitlines() if line.strip()][-1:]
        status = "ok" if proc.returncode == 0 else f"FAIL rc={proc.returncode}"
        print(f"shard {index}/{len(procs)} ({len(shards[index])} files): {status}"
              f" — {tail[0] if tail else ''}")
        if proc.returncode != 0:
            failed += 1
            print(output)
    wall = time.perf_counter() - start
    print(
        f"pytest farm: {len(procs)} shard(s), {failed} failed, "
        f"{wall:.1f}s wall on {args.workers} worker(s)"
    )
    if args.budget_s and wall > args.budget_s:
        print(f"wall-time budget exceeded: {wall:.1f}s > {args.budget_s:.1f}s")
        return 3
    return 0 if failed == 0 else 1


def _cmd_sweep(args: Args) -> int:
    config = _serving_config(args)
    doc = sweep(config, args.rps or default_grid(config), workers=args.workers)
    print(serving_report.render(doc))
    _write(args.out, serving_report.to_json(doc))
    return 0


def _cmd_overload(args: Args) -> int:
    config = _serving_config(args)
    doc = overload_curve(
        config,
        knee_rps=args.knee or default_knee(config),
        multipliers=args.multipliers,
        workers=args.workers,
    )
    print(serving_report.render_overload(doc))
    _write(args.out, serving_report.to_json(doc))
    if args.check:
        problems = serving_report.check_overload(doc)
        for problem in problems:
            print(f"OVERLOAD: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("overload gate ok")
    return 0


def _cmd_report(args: Args) -> int:
    with open(existing_file(args.path)) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise UsageError(f"{args.path!r} is not JSON: {err}") from None
    problems = serving_report.check_report(doc)
    if args.check:
        for problem in problems:
            print(f"SCHEMA: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{args.path}: schema ok "
              f"({len(doc['points'])} points, "
              f"{len(doc['bisection'])} bisection probes)")
        return 0
    for problem in problems:
        print(f"warning: {problem}", file=sys.stderr)
    try:
        print(serving_report.render(doc))
    except (KeyError, TypeError):  # a field render needs is missing
        raise UsageError(f"{args.path!r} is not a serving report") from None
    return 0


# -- the parser --------------------------------------------------------------


Group = Callable[[argparse.ArgumentParser], None]


def _workers(default: int) -> Group:
    """``--workers``.  Verbs whose farmed run is no faster than a serial
    one on two CPUs (sweep, explore) default to 1."""

    def group(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=POSITIVE_INT, default=default,
                       help=f"farm the work over N processes (default: {default})")

    return group


def _attach(p: argparse.ArgumentParser) -> None:
    p.add_argument("--attach", type=attach_spec, action="append", default=[],
                   metavar="SPEC",
                   help="counter:PATTERN[:key=N] | hist:PATTERN[:value=N] | "
                        "rate:PATTERN[:bin_ns] | spans | metrics[:window_us] | gsan")


def _reports(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group("reports")
    group.add_argument("--quiet", action="store_true",
                       help="skip the run's own tables or summary line")
    group.add_argument("--tef", metavar="PATH",
                       help="write a Perfetto trace of every attached program's tracks")
    group.add_argument("--json", metavar="PATH",
                       help="write the run's JSON document (schema 4): probe "
                            "snapshots, metrics series, span statistics and, "
                            "from serve, the point")


def _serving(p: argparse.ArgumentParser) -> None:
    d = ServingConfig()
    group = p.add_argument_group("serving")
    group.add_argument("--workload", choices=WORKLOADS, default=d.workload)
    group.add_argument("--arrival", choices=KINDS, default=d.arrival.kind,
                       help="arrival process")
    group.add_argument("--on-fraction", type=float, default=d.arrival.on_fraction,
                       help="ON/OFF: fraction of time in the ON phase")
    group.add_argument("--period-ns", type=POSITIVE, default=d.arrival.period_ns,
                       help="ON/OFF: mean ON+OFF cycle length")
    group.add_argument("--zipf-s", type=NON_NEGATIVE, default=d.zipf_s,
                       help="key popularity exponent (0 = uniform)")
    group.add_argument("--seed", type=int, default=d.seed)
    group.add_argument("--clients", type=POSITIVE_INT, default=d.num_clients,
                       help="number of simulated client sockets")
    group.add_argument("--timeout-us", type=POSITIVE, default=d.timeout_ns / 1e3,
                       help="per-request deadline")
    group.add_argument("--warmup-us", type=NON_NEGATIVE, default=d.warmup_ns / 1e3)
    group.add_argument("--measure-us", type=POSITIVE, default=d.measure_ns / 1e3)
    group.add_argument("--window-us", type=POSITIVE, default=d.report_window_ns / 1e3,
                       help="report window of each point's time series "
                            "(the metrics hub window is --attach metrics:W)")
    group.add_argument("--workgroups", type=POSITIVE_INT, default=d.num_workgroups)
    group.add_argument("--workgroup-size", type=POSITIVE_INT, default=d.workgroup_size)
    group.add_argument("--rx-backlog", type=NON_NEGATIVE_INT, default=d.rx_backlog or 0,
                       help="server receive-queue bound (0 = unbounded)")
    group.add_argument("--slo-p99-us", type=POSITIVE, default=d.slo_p99_ns / 1e3)
    group.add_argument("--slo-completion", type=fraction, default=d.slo_completion)


def _point(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rps", type=POSITIVE_INT, default=100_000, help="offered RPS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GENESYS reproduction: experiments, observers, gates.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    def verb(name: str, fn: Callable[[Args], int], text: str,
             *groups: Group) -> argparse.ArgumentParser:
        p = verbs.add_parser(name, help=text, description=text)
        p.set_defaults(fn=fn, verb_parser=p)
        for group in groups:
            group(p)
        return p

    p = verb("list", _cmd_list, "list experiments, tracepoints, chaos profiles or scenarios")
    p.add_argument("target", nargs="?", default="experiments",
                   choices=("experiments", "tracepoints", "profiles", "scenarios"))

    p = verb("run", _cmd_run, "run experiments, optionally observed",
             _attach, _reports)
    p.add_argument("names", nargs="*", type=experiment_name, metavar="NAME")
    p.add_argument("--all", action="store_true", help="run every experiment")

    verb("serve", _cmd_serve, "one fixed-RPS serving point, optionally observed",
         _serving, _point, _attach, _reports)

    p = verb("record", _cmd_record, "record latency baselines")
    p.add_argument("names", nargs="+", type=experiment_name, metavar="NAME")
    p.add_argument("--dir", default=DEFAULT_DIR, help="baseline directory")

    p = verb("gate", _cmd_gate, "re-run experiments against their latency baselines")
    p.add_argument("names", nargs="*", type=experiment_name, metavar="NAME",
                   help="experiments to gate (default: every recorded baseline)")
    p.add_argument("--dir", default=DEFAULT_DIR, help="baseline directory")

    p = verb("lint", _cmd_lint, "static determinism and registry lint")
    p.add_argument("paths", nargs="*", help="files or directories (default: src/repro)")
    p.add_argument("--json", action="store_true")

    p = verb("corpus", _cmd_corpus, "judge every seeded bug and certify each find")
    p.add_argument("--cert-dir", default="gmc_certs")
    p.add_argument("--json", action="store_true")

    p = verb("explore", _cmd_explore, "walk a scenario's schedule space", _workers(1))
    p.add_argument("--scenario", required=True, type=_one_of("scenario", scenario_names()))
    p.add_argument("--profile", type=_one_of("fault profile", list(PROFILES)),
                   help="chaos fault profile")
    p.add_argument("--seed", type=POSITIVE_INT, default=1,
                   help="fault-plan seed (0 would rerun seed 1)")
    p.add_argument("--schedules", type=POSITIVE_INT, default=256, help="run budget")
    p.add_argument("--depth", type=NON_NEGATIVE_INT, default=12,
                   help="branchable decisions")
    p.add_argument("--preemptions", type=NON_NEGATIVE_INT, default=4)
    p.add_argument("--cert-dir", default="gmc_certs")
    p.add_argument("--json", action="store_true")

    p = verb("replay", _cmd_replay, "re-run a schedule certificate")
    p.add_argument("certificate", help="gmc-certificate JSON")
    p.add_argument("--json", action="store_true")

    p = verb("chaos", _cmd_chaos, "the fault-injection invariant matrix",
             _workers(default_workers()))
    p.add_argument("--experiments", type=_list_of(_one_of("chaos experiment", list(PROFILES))),
                   default=list(PROFILES), metavar="A,B",
                   help="comma-separated chaos profiles (default: all)")
    p.add_argument("--seeds", type=seeds, default=[1, 2, 3],
                   help="fault-plan seeds: 1,2,5 or 1:6 (default 1,2,3)")
    p.add_argument("--intensity", type=NON_NEGATIVE, default=1.0,
                   help="scale every fault rate; a fault site whose rates "
                        "then sum past 1 is scaled down to sum to 1")
    p.add_argument("--json", metavar="PATH", help="write the cells and summary here")

    p = verb("pytest", _cmd_pytest, "shard the test suite over processes",
             _workers(default_workers()))
    p.add_argument("--budget-s", type=NON_NEGATIVE, default=0.0,
                   help="fail if total wall time exceeds this many seconds")
    p.add_argument("pytest_args", nargs="*", default=[])

    p = verb("sweep", _cmd_sweep, "RPS grid + SLO bisection", _serving, _workers(1))
    p.add_argument("--rps", type=POSITIVE_INT, nargs="*", default=[],
                   help="explicit grid (default: workload preset)")
    p.add_argument("--out", default="BENCH_serving.json")

    p = verb("overload", _cmd_overload,
             "offered-vs-goodput through the knee, bare vs QoS",
             _serving, _workers(default_workers()))
    p.add_argument("--knee", type=NON_NEGATIVE_INT, default=0,
                   help="knee RPS (0 = workload preset)")
    p.add_argument("--multipliers", type=POSITIVE, nargs="+",
                   default=list(DEFAULT_MULTIPLIERS),
                   help="offered-load multiples of the knee")
    p.add_argument("--out", default="BENCH_overload.json")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless the no-collapse goodput gate holds")

    p = verb("report", _cmd_report, "render or validate a BENCH_serving.json")
    p.add_argument("path")
    p.add_argument("--check", action="store_true",
                   help="exit 1 unless the schema validates")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    verb_parser: argparse.ArgumentParser = args.verb_parser
    try:
        code: int = args.fn(args)
    except UsageError as err:
        verb_parser.error(str(err))
    return code
