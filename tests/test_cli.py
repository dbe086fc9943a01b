"""``python -m repro``: the one command line.

Covers bad input (exit 2, an ``error:`` line naming the value, no
traceback), one cheap run of every verb, the ``--attach`` spec
language and the seeds parser, every documented command parsing,
and the single entry point.
"""

import ast
import json
import os
import pathlib
import re
import runpy
import shlex
import signal
import subprocess
import sys

import pytest

from repro import experiments
from repro.core.invocation import SyscallRequest
from repro.core.syscall_area import SlotStateError
from repro.cli import (
    AttachPlan,
    UsageError,
    attach_spec,
    build_parser,
    main,
    seeds,
)
from repro.machine import small_machine
from repro.oskernel.process import OsProcess
from repro.probes.tracepoints import ProbeRegistry, attached
from repro.system import System
from repro.tracing.gate import gate_experiment

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
LATENCY_DIR = str(REPO / "benchmarks" / "latency")

#: Input files that exist but are not what the verb reads.
NOT_JSON = REPO / "pyproject.toml"
OTHER_JSON = REPO / "benchmarks" / "latency" / "fig2.json"  # a latency baseline

#: A serving point small enough for a unit test.
TINY_SERVING = [
    "--clients", "8", "--warmup-us", "20", "--measure-us", "50", "--window-us", "50",
]


def run_cli(capsys, *argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# -- bad input ---------------------------------------------------------------

BAD_INPUT = [
    (["run", "nope"], "'nope'"),
    # the GSan sweep is `run NAME... --attach gsan`; one corpus has no kinds
    (["check", "--experiments", "fig2"], "'check'"),
    (["corpus", "gsan"], "gsan"),
    (["run", "fig2", "--attach", "gsan:x"], "'gsan:x': gsan takes no target"),
    (["record", "nope"], "'nope'"),
    (["record", "table2"], "'table2'"),
    (["gate", "nope"], "'nope'"),
    (["gtop", "fig2"], "'gtop'"),
    (["explore", "--scenario", "nope"], "'nope'"),
    (["explore", "--scenario", "fig2", "--schedules", "0"], "'0'"),
    (["explore", "--scenario", "slot-commute", "--profile", "fig2"], "'slot-commute'"),
    # seed 0 would explore seed 1's fault plan under another name
    (["explore", "--scenario", "fig2", "--profile", "fig2", "--seed", "0"], "'0'"),
    (["chaos", "--experiments", "nope"], "'nope'"),
    (["chaos", "--seeds", "1,x"], "'1,x'"),
    # a repeated cell key, or seed 0 (which replays seed 1's stream)
    (["chaos", "--experiments", "fig2", "--seeds", "1:3,2", "--workers", "1"],
     "2 repeated in '1:3,2'"),
    (["chaos", "--experiments", "fig2,fig2", "--seeds", "1", "--workers", "1"],
     "fig2 repeated in 'fig2,fig2'"),
    (["chaos", "--experiments", "fig2", "--seeds", "0", "--workers", "1"],
     "seed 0 in '0' reruns seed 1"),
    (["run", "fig2", "--attach", "metrics:0"], "'metrics:0'"),
    (["run", "fig2", "--attach", "bogus:thing"], "'bogus:thing'"),
    (["run", "fig2", "--attach", "hist:nope"], "'hist:nope'"),
    (["serve", "--rps", "0"], "'0'"),
    # flags no caller set are gone; each is its default
    (["gate", "--tolerance=0"], "--tolerance"),
    (["gate", "--abs-ns=0"], "--abs-ns"),
    (["explore", "--scenario", "fig2", "--no-dpor"], "--no-dpor"),
    (["explore", "--scenario", "fig2", "--no-shrink"], "--no-shrink"),
    (["corpus", "--entries=lost-wakeup"], "--entries"),
    # no flag pins a decision: a value meant to hold is a knob, and a
    # fault is a FaultPlan's
    (["run", "fig2", "--policy", "coalesce.window=1"], "--policy"),
    (["run", "fig2", "--policy", "fault.errno=5"], "--policy"),
    # the corpus is too small to farm, with any number of workers
    (["corpus", "--workers", "4"], "--workers"),
    (["corpus", "--workers", "1"], "--workers"),
    (["pytest", "--tests=tests"], "--tests"),
    (["overload", "--no-brownout"], "--no-brownout"),
    (["overload", "--sojourn-budget-us=50"], "--sojourn-budget-us"),
    (["run"], "--all"),
    # a report flag the one JSON document replaced fails loudly
    (["run", "fig2", "--prom", "m.prom"], "--prom"),
    (["run", "fig2", "fig7", "--attach", "spans", "--json", "s.json"],
     "--json and --tef report one run; name one experiment"),
    (["run", "--all", "--tef", "t.json"], "name one experiment"),
    (["run", "--all", "--json", "d.json"], "name one experiment"),
    (["run", "fig2", "fig2", "--tef", "t.json"], "name one experiment"),
    (["run", "fig2", "--attach", "counter:nope*"], "'counter:nope*'"),
    (["run", "fig2", "--attach", "hist:syscall.complete:value=9"],
     "'hist:syscall.complete:value=9': syscall.complete has no argument 9"),
    (["run", "fig2", "--attach", "counter:syscall.dispatch:key=7"],
     "'counter:syscall.dispatch:key=7': syscall.dispatch has no argument 7"),
    (["serve", "--policy", "coalesce.window=1"], "--policy"),
    (["replay", "no-such-certificate.json"], "no-such-certificate.json"),
    (["replay", str(NOT_JSON)], str(NOT_JSON)),
    (["replay", str(OTHER_JSON)], str(OTHER_JSON)),
    (["report", "no-such-bench.json"], "no-such-bench.json"),
    (["report", str(NOT_JSON)], str(NOT_JSON)),
    (["report", str(OTHER_JSON)], str(OTHER_JSON)),
    (["lint", "no/such/path"], "no/such/path"),
    (["serve", "--arrival", "onoff", "--on-fraction", "2"], "on_fraction"),
    (["serve", "--rps", "60000", "--clients", "8", "--measure-us", "inf"], "'inf'"),
    (["overload", "--multipliers", "inf", "--clients", "8", "--measure-us", "100"],
     "'inf'"),
    (["chaos", "--experiments", "fig2", "--seeds", "1", "--intensity", "inf"], "'inf'"),
    (["run", "fig2", "--attach", "metrics:inf"], "'metrics:inf'"),
    (["serve", "--slo-completion", "nan"], "'nan'"),
    (["serve", "--slo-completion", "1.5"], "'1.5'"),
]


@pytest.mark.parametrize(
    "argv, bad", BAD_INPUT,
    ids=[" ".join(argv).replace(f"{REPO}{os.sep}", "") for argv, _ in BAD_INPUT],
)
def test_bad_input_exits_2(capsys, argv, bad):
    # A bad value that slips through can start an unbounded run
    # (``--measure-us inf`` never returns), so each row gets a deadline.
    def expire(signum, frame):
        raise TimeoutError(f"{argv} was accepted and is still running")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        code, _out, err = run_cli(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2, err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors and bad in errors[0], err
    assert "Traceback" not in err


#: Certificates a replay must refuse, each beside the fragment its
#: error line names: ``(fields over a valid certificate, fragment)``.
BAD_CERTIFICATES = [
    ({"scenario": "nope"}, "unknown scenario 'nope'"),
    ({"choices": [[0, 99]]}, "rank 99"),
    ({"choices": "abc"}, "'abc'"),
    ({"scenario": "fig2", "plan": {"irq_drop": 5.0}}, "irq_drop=5.0"),
    ({"plan": {"seed": 1}}, "takes no fault plan"),
    ({"seed": "1"}, "seed must be an integer"),
    ({"scenario": "fig2", "plan": {"seed": 0}}, "seed=0"),
    # a choice the run never reaches is a misfit, not a clean replay
    ({"choices": [[5000, 1]]}, "decision 5000 never came"),
]


@pytest.mark.parametrize(
    "fields, bad", BAD_CERTIFICATES, ids=[bad for _, bad in BAD_CERTIFICATES]
)
def test_malformed_certificate_exits_2(tmp_path, capsys, fields, bad):
    from repro.modelcheck.certificate import make_certificate, save_certificate

    cert = make_certificate("ready-publish-race", [(1, 1)])
    cert.update(fields)
    path = tmp_path / "cert.json"
    save_certificate(cert, str(path))
    code, _out, err = run_cli(capsys, "replay", str(path))
    assert code == 2, err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors and str(path) in errors[0] and bad in errors[0], err
    assert "Traceback" not in err


def test_zero_tolerances_stay_legal():
    """fig2's recorded baseline holds with no tolerance band at all."""
    plan = AttachPlan([attach_spec("spans")])
    with attached(plan):
        experiments.run("fig2")
    result = gate_experiment(
        "fig2", plan.traces, LATENCY_DIR, tolerance=0.0, abs_ns=0.0
    )
    assert result.passed and result.checks


def test_module_entry_point_exits_2_without_traceback():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "run", "nope"],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 2
    assert "error:" in result.stderr and "'nope'" in result.stderr
    assert "Traceback" not in result.stderr


# -- every verb, once --------------------------------------------------------


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], ("available experiments", "fig8")),
        (["experiments"], ("table2",)),
        (["tracepoints"], ("syscall.complete", "fault.irq.injected")),
        (["profiles"], ("memcached",)),
        (["scenarios"], ("slot-commute",)),
    ],
)
def test_list(capsys, argv, expected):
    code, out, _err = run_cli(capsys, "list", *argv)
    assert code == 0
    for text in expected:
        assert text in out


def test_list_tracepoints_names_only_tracepoints(capsys):
    code, out, _err = run_cli(capsys, "list", "tracepoints")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == sorted(
        System().probes.tracepoints
    )


def test_run_one(capsys):
    code, out, _err = run_cli(capsys, "run", "table4")
    assert code == 0
    assert "Table IV" in out and "cmp-swap" in out
    assert "[table4: " in out


def test_run_writes_probe_snapshot(tmp_path, capsys):
    path = tmp_path / "probes.json"
    code, _out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "counter:*",
        "--attach", "rate:irq.raised:5000", "--json", str(path), "--quiet",
    )
    assert code == 0
    document = json.loads(path.read_text())
    assert document["schema"] == 4
    assert document["experiment"] == "fig2"
    assert "spans" not in document and "point" not in document
    (system,) = document["systems"]
    # Probes only observe: a snapshot carries no decision counts.
    assert set(system) == {"simulated_ns", "tracepoints", "programs"}
    assert sum(tp["hits"] for tp in system["tracepoints"].values()) > 0
    hubs = {program["label"]: program for program in system["programs"]}
    assert set(hubs) == {"counter:*", "rate:irq.raised:5000"}
    assert hubs["rate:irq.raised:5000"]["window_ns"] == 5000.0
    assert hubs["rate:irq.raised:5000"]["lifetime"]["irq.raised"]["total"] > 0
    assert sum(m["total"] for m in hubs["counter:*"]["lifetime"].values()) > 0


def test_probe_snapshot_keeps_whole_run_aggregates(tmp_path, capsys):
    path = tmp_path / "probes.json"
    code, _out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "counter:syscall.dispatch:key=0",
        "--attach", "hist:syscall.complete:value=2", "--json", str(path), "--quiet",
    )
    assert code == 0
    (counter, hist) = json.loads(path.read_text())["systems"][0]["programs"]
    assert counter["lifetime"]["syscall.dispatch"] == {
        "total": 2.0, "by_key": {"open": 1.0, "pread": 1.0},
    }
    latency = hist["lifetime"]["syscall.complete"]
    assert latency["count"] == 2 and latency["min"] <= latency["mean"] <= latency["max"]
    assert sum(latency["buckets"].values()) == 2


def test_two_metrics_hubs_draw_apart(tmp_path, capsys):
    """Every hub on one registry has its own label, so two hubs never
    mix their samples into one ``metric:<label>:*`` track."""
    path = tmp_path / "t.json"
    code, out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "metrics:10", "--attach", "metrics:20",
        "--tef", str(path), "--quiet",
    )
    assert code == 0
    assert re.findall(r"hub=(\S+)", out) == ["sys0", "sys0#2"]
    tracks = {}
    for event in json.loads(path.read_text())["traceEvents"]:
        if event["ph"] == "C":
            tracks.setdefault(event["name"], []).append(event["ts"])
    assert "metric:sys0:syscall.rate" in tracks
    assert "metric:sys0#2:syscall.rate" in tracks
    for name, stamps in tracks.items():
        assert stamps == sorted(set(stamps)), name


def test_track_names_do_not_depend_on_other_hubs(tmp_path, capsys):
    """A probe spec beside ``--attach metrics`` leaves the metrics
    hub's track names as they are alone."""
    names = []
    for extra in ((), ("--attach", "counter:irq.raised")):
        path = tmp_path / f"t{len(names)}.json"
        code, _out, _err = run_cli(
            capsys, "run", "fig2", "--attach", "metrics", *extra,
            "--tef", str(path), "--quiet",
        )
        assert code == 0
        names.append({
            event["name"] for event in json.loads(path.read_text())["traceEvents"]
            if event["ph"] == "C" and event["name"].startswith("metric:sys0:")
        })
    assert "metric:sys0:syscall.rate" in names[0]
    assert names[0] == names[1]


def test_counter_tracks_are_only_rows_that_fired(tmp_path, capsys):
    """A hub row whose tracepoint never fires keeps no windows, so it
    draws no track: fig2 fires 29 of its tracepoints, and each draws a
    count and a rate track."""
    path = tmp_path / "c.json"
    code, _out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "counter:*", "--tef", str(path), "--quiet",
    )
    assert code == 0
    tracks = {}
    for event in json.loads(path.read_text())["traceEvents"]:
        if event["ph"] == "C" and event["name"].startswith("metric:"):
            tracks.setdefault(event["name"], []).append(event["args"]["value"])
    assert len(tracks) == 58
    assert all(any(values) for values in tracks.values())


def test_run_prints_a_frame_for_each_probe_hub(capsys):
    """A probe spec is a metrics hub too, so the run prints its frame."""
    code, out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "counter:irq.raised",
        "--attach", "rate:syscall.*", "--quiet",
    )
    assert code == 0
    assert re.findall(r"hub=(\S+)", out) == ["counter:irq.raised", "rate:syscall.*"]
    rows = [
        line.split()[0] for line in out.splitlines()
        if line.startswith(("irq.", "syscall."))
    ]
    assert "irq.raised" in rows and "syscall.complete" in rows


def test_probe_hub_rows_carry_a_unit(capsys):
    """Counter and rate rows count fires per second; a hist row is in
    the unit of the argument it histograms."""
    code, out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "counter:irq.raised",
        "--attach", "hist:syscall.complete:value=2", "--quiet",
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()
            if line.startswith(("irq.raised", "syscall.complete"))]
    assert [row[:4] for row in rows] == [
        ["irq.raised", "fires/s", "100000", "100000"],
        ["syscall.complete", "service_ns", "2048", "2048"],
    ]


def test_run_prints_span_report_and_metrics_frame(tmp_path, capsys):
    path = tmp_path / "fig2.json"
    code, out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "spans", "--attach", "metrics:20",
        "--quiet", "--json", str(path),
    )
    assert code == 0
    assert "stage latency" in out and "slowest 5 invocations" in out
    assert "metrics — fig2" in out and "window=20us" in out
    document = json.loads(path.read_text())
    spans = document["spans"]
    assert set(spans) == {
        "invocations", "stages", "end_to_end", "by_syscall", "critical_path",
    }
    assert spans["invocations"] == 2 and spans["stages"]
    (hub,) = [p for p in document["systems"][0]["programs"] if "series" in p]
    assert hub["window_ns"] == 20_000.0
    assert all(isinstance(value, float) for _t0, value in hub["series"]["syscall.rate"])


def test_json_document_is_byte_identical_across_runs(tmp_path, capsys):
    """Probe counts, series and span statistics are all simulated-time
    numbers, so two runs under one attach set write the same bytes."""
    texts = []
    for n in range(2):
        path = tmp_path / f"fig2-{n}.json"
        code, _out, _err = run_cli(
            capsys, "run", "fig2", "--attach", "spans", "--attach", "metrics",
            "--attach", "counter:*", "--json", str(path), "--quiet",
        )
        assert code == 0
        texts.append(path.read_text())
    assert texts[0] == texts[1]
    assert set(json.loads(texts[0])) == {"schema", "experiment", "systems", "spans"}


def test_json_of_a_run_without_a_system(tmp_path, capsys):
    path = tmp_path / "table2.json"
    code, out, err = run_cli(
        capsys, "run", "table2", "--attach", "metrics", "--json", str(path),
    )
    assert code == 0, err
    assert "classification of Linux system calls" in out and "metrics —" not in out
    assert "table2 built no System" in err
    assert json.loads(path.read_text()) == {
        "schema": 4, "experiment": "table2", "systems": [],
    }


def test_serve(tmp_path, capsys):
    path = tmp_path / "point.json"
    code, out, _err = run_cli(
        capsys, "serve", "--rps", "20000", *TINY_SERVING, "--attach", "gsan",
        "--json", str(path),
    )
    assert code == 0
    assert "memcached @ 20000 RPS" in out and "achieved" in out
    assert re.search(r"GSan — serving: [1-9]\d* events checked on 1 system\(s\), "
                     r"0 violation\(s\)", out)
    document = json.loads(path.read_text())
    assert document["experiment"] == "serving"
    assert document["point"]["rps_target"] == 20000


def test_serve_json_carries_spans_beside_the_point(tmp_path, capsys):
    path = tmp_path / "point.json"
    code, out, _err = run_cli(
        capsys, "serve", "--rps", "20000", *TINY_SERVING, "--attach", "spans",
        "--json", str(path), "--quiet",
    )
    assert code == 0
    assert "stage latency" in out and "achieved" not in out
    document = json.loads(path.read_text())
    assert set(document) == {"schema", "experiment", "systems", "spans", "point"}
    assert document["spans"]["invocations"] > 0 and document["spans"]["stages"]
    assert document["point"]["rps_target"] == 20000


def test_run_attach_gsan(tmp_path, capsys):
    path = tmp_path / "gsan.json"
    code, out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "gsan", "--json", str(path), "--quiet",
    )
    assert code == 0
    assert "GSan — fig2: 36 events checked on 1 system(s), 0 violation(s)" in out
    (system,) = json.loads(path.read_text())["systems"]
    (snapshot,) = system["programs"]
    assert snapshot["kind"] == "sanitizer"
    assert snapshot["events"] > 0 and snapshot["violations"] == 0


def finish_a_slot_twice(_name):
    """A stand-in experiment whose one System finishes a slot twice,
    the corpus's ``double-finish`` bug."""
    system = System(config=small_machine())
    slot = system.genesys.area.slot_for(0, 0)
    assert slot.try_claim()
    slot.populate(SyscallRequest("getrusage", (), True, OsProcess(system.sim, "p")))
    slot.set_ready()
    slot.start_processing()
    slot.finish(0)
    with pytest.raises(SlotStateError):
        slot.finish(0)


def test_run_with_a_gsan_violation_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "run", finish_a_slot_twice)
    path = tmp_path / "gsan.json"
    code, out, _err = run_cli(
        capsys, "run", "fig2", "--attach", "gsan", "--json", str(path), "--quiet",
    )
    assert code == 1
    assert "GSan violation [protocol-error]" in out and "<< VIOLATION" in out
    assert "on 1 system(s), 2 violation(s)" in out
    (snapshot,) = json.loads(path.read_text())["systems"][0]["programs"]
    assert snapshot["rules"] == {"protocol-error": 1, "slot-leak": 1}


def test_lint(capsys):
    code, out, _err = run_cli(capsys, "lint", str(SRC / "metrics" / "hub.py"))
    assert code == 0
    assert "repro.lint: clean" in out


def test_corpus(tmp_path, capsys):
    code, out, _err = run_cli(capsys, "corpus", "--json", "--cert-dir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and len(doc["bugs"]) == 14
    assert all(row["ok"] and row["certificate"] for row in doc["bugs"])
    certs = sorted(path.name for path in tmp_path.iterdir())
    assert certs == sorted(f"{row['bug']}.json" for row in doc["bugs"])
    code, out, _err = run_cli(capsys, "replay", str(tmp_path / "double-finish.json"))
    assert code == 0
    assert "choices: (pure FIFO)" in out and "<< VIOLATION" in out


def test_explore(tmp_path, capsys):
    code, out, _err = run_cli(
        capsys, "explore", "--scenario", "slot-commute", "--schedules", "4",
        "--workers", "1", "--cert-dir", str(tmp_path),
    )
    assert code == 0
    assert "gmc explore slot-commute:" in out


def test_chaos(tmp_path, capsys):
    path = tmp_path / "chaos.json"
    code, out, _err = run_cli(
        capsys, "chaos", "--experiments", "fig2", "--seeds", "1",
        "--workers", "1", "--json", str(path),
    )
    assert code == 0
    assert "chaos matrix: 1 cells, 1 ok, 0 failed" in out
    assert [cell["seed"] for cell in json.loads(path.read_text())["cells"]] == [1]


@pytest.mark.parametrize(
    "argv",
    [
        # Scaled per field, udp-echo's net rates would sum past 1.
        ["--experiments", "udp-echo", "--seeds", "1", "--intensity", "2.1"],
        # Injected errnos outlast a recvfrom's retries, so the Fig-15
        # kernel must re-issue the call rather than unpack the errno.
        ["--experiments", "memcached", "--seeds", "48", "--intensity", "4.3"],
    ],
)
def test_chaos_intensity_ends_without_a_traceback(capsys, argv):
    code, out, err = run_cli(capsys, "chaos", *argv, "--workers", "1")
    assert code == 0, out
    assert "Traceback" not in out + err
    assert "chaos matrix: 1 cells, 1 ok" in out


def test_pytest(tmp_path, capsys, monkeypatch):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_trivial.py").write_text(
        "def test_ok():\n    assert True\n"
    )
    monkeypatch.chdir(tmp_path)
    code, out, _err = run_cli(capsys, "pytest", "--workers", "1")
    assert code == 0
    assert "pytest farm: 1 shard(s), 0 failed" in out


def test_sweep_then_report(tmp_path, capsys):
    path = tmp_path / "BENCH_serving.json"
    code, _out, _err = run_cli(
        capsys, "sweep", "--rps", "20000", *TINY_SERVING,
        "--workers", "1", "--out", str(path),
    )
    assert code == 0
    code, out, _err = run_cli(capsys, "report", str(path), "--check")
    assert code == 0
    assert "schema ok" in out


def test_overload_carries_the_plan(tmp_path, capsys):
    path = tmp_path / "BENCH_overload.json"
    code, out, _err = run_cli(
        capsys, "overload", "--knee", "20000", "--multipliers", "1", *TINY_SERVING,
        "--workers", "1", "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["knee_rps"] == 20000 and doc["plan"] == {"sojourn_budget_ns": 2e5}
    assert len(doc["baseline"]) == len(doc["qos"]) == 1


# -- the spec language -------------------------------------------------------


def spec_registry():
    registry = ProbeRegistry()
    registry.tracepoint("irq.raised", ("payload",))
    registry.tracepoint("irq.serviced", ("payload",))
    registry.tracepoint("wq.enqueue", ("backlog", "task_index"))
    return registry


class TestAttachSpecs:
    def test_counter_glob(self):
        registry = spec_registry()
        AttachPlan([attach_spec("counter:irq.*")])(registry)
        (hub,) = registry.programs
        assert hub.label == "counter:irq.*"
        assert list(hub.metrics) == ["irq.raised", "irq.serviced"]
        assert registry.get("irq.raised").enabled
        assert registry.get("irq.serviced").enabled
        assert not registry.get("wq.enqueue").enabled

    def test_counter_with_key(self):
        registry = spec_registry()
        AttachPlan([attach_spec("counter:wq.enqueue:key=1")])(registry)
        (spec,) = registry.programs[0].specs.values()
        assert spec.sources == (("wq.enqueue", "count", {"key_arg": 1}),)

    def test_hist_and_rate_take_globs(self):
        registry = spec_registry()
        AttachPlan(
            [attach_spec("hist:irq.*"), attach_spec("rate:irq.raised:2500")]
        )(registry)
        hist, rate = registry.programs
        assert [m.kind for m in hist.metrics.values()] == ["histogram", "histogram"]
        assert hist.window_ns == 10_000.0
        assert [m.kind for m in rate.metrics.values()] == ["counter"]
        assert rate.window_ns == 2500.0

    def test_counter_and_rate_are_one_estimator(self):
        registry = spec_registry()
        AttachPlan([attach_spec("counter:irq.raised"), attach_spec("rate:irq.raised")])(
            registry
        )
        counter, rate = registry.programs
        assert counter.specs["irq.raised"].sources == rate.specs["irq.raised"].sources
        assert counter.window_ns == rate.window_ns == 10_000.0

    @pytest.mark.parametrize(
        "spec", ["hist:wq.enqueue:value=2", "counter:irq.*:key=1"]
    )
    def test_argument_past_the_tracepoint_is_refused(self, spec):
        with pytest.raises(UsageError, match=r"has no argument \d; its arguments are \("):
            AttachPlan([attach_spec(spec)])(spec_registry())

    def test_metrics_window(self):
        plan = AttachPlan([attach_spec("metrics:20")])
        with attached(plan):
            System(config=small_machine())
        assert [hub.window_ns for hub in plan.hubs] == [20_000.0]

    @pytest.mark.parametrize(
        "spec",
        [
            "counter",  # no target
            "bogus:irq.raised",  # unknown kind
            "counter:irq.raised:keys=0",  # bad option
            "hist:irq.raised:value=x",  # non-integer
            "rate:irq.raised:abc",  # non-integer bin
            "rate:irq.raised:0",  # empty bin
            "spans:irq.raised",  # spans takes no target
            "gsan:irq.raised",  # nor does gsan
            "metrics:0",  # empty window
            "metrics:x",  # non-numeric window
            "metrics:nan",  # not a window at all
        ],
    )
    def test_bad_attach_specs(self, spec):
        with pytest.raises(UsageError, match=re.escape(repr(spec))):
            attach_spec(spec)

    @pytest.mark.parametrize("spec", ["hist:no.such.tp", "counter:no.such.*"])
    def test_unknown_tracepoint_is_refused(self, spec):
        with pytest.raises(UsageError, match="no.such"):
            AttachPlan([attach_spec(spec)])(spec_registry())


class TestSeeds:
    @pytest.mark.parametrize(
        "text, expected",
        [("1,2,5", [1, 2, 5]), ("1:6", [1, 2, 3, 4, 5]), ("1:3, 7", [1, 2, 7]), ("4", [4])],
    )
    def test_lists_and_ranges(self, text, expected):
        assert seeds(text) == expected

    @pytest.mark.parametrize("text", ["", ",", "1,x", "1:", "a:3", "5:1"])
    def test_refused(self, text):
        with pytest.raises(UsageError):
            seeds(text)


# -- documented commands -----------------------------------------------------

DOCS = [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    REPO / "DESIGN.md",
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((REPO / "docs").glob("*.md")),
]
CI = REPO / ".github" / "workflows" / "ci.yml"
COMMAND = "python -m repro "
OLD_FORM = re.compile(r"python3?\s+-m\s+repro\.[a-z]")  # prose may wrap
SHELL_BREAKS = {"|", "||", "&&", ";", ">", ">>", "2>&1"}


def commands_in(snippet):
    """Argument lists of every ``python -m repro`` command in a shell
    snippet, with backslash continuations joined."""
    found = []
    for line in re.sub(r"\\\n\s*", " ", snippet).splitlines():
        _, sep, rest = line.partition(COMMAND)
        if not sep:
            continue
        argv = []
        for token in shlex.split(rest, comments=True):
            if token in SHELL_BREAKS:
                break
            argv.append(token)
        found.append(argv)
    return found


def documented_commands():
    commands = []
    for path in DOCS:
        for block in re.findall(r"^\s*```[^\n]*\n(.*?)^\s*```", path.read_text(), re.M | re.S):
            commands += [(path.name, argv) for argv in commands_in(block)]
    commands += [(CI.name, argv) for argv in commands_in(CI.read_text())]
    return commands


def test_documented_commands_parse():
    commands = documented_commands()
    assert len(commands) >= 50, commands
    assert {name for name, _ in commands} >= {"README.md", "ci.yml", "architecture.md"}
    parser = build_parser()
    for name, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: `python -m repro {' '.join(argv)}` does not parse")


@pytest.mark.parametrize("path", [*DOCS, CI], ids=lambda path: path.name)
def test_no_per_package_command_remains(path):
    assert not OLD_FORM.findall(path.read_text()), path


# -- one entry point ---------------------------------------------------------

OLD_ENTRY_POINTS = (
    "experiments", "probes", "tracing", "metrics", "sanitizers",
    "faults", "qos", "serving", "modelcheck", "runfarm",
)


def test_one_entry_point_and_one_parser():
    assert [p.relative_to(SRC) for p in SRC.rglob("__main__.py")] == [
        pathlib.Path("__main__.py")
    ]
    assert [p.relative_to(SRC) for p in SRC.rglob("cli.py")] == [pathlib.Path("cli.py")]
    for path in SRC.rglob("*.py"):
        if path == SRC / "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "argparse" not in names, f"{path} imports argparse"


@pytest.mark.parametrize("package", OLD_ENTRY_POINTS)
def test_old_module_paths_are_gone(package):
    with pytest.raises(ImportError, match="No module named"):
        runpy.run_module(f"repro.{package}", run_name="__main__")


def test_import_repro_does_not_import_cli():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('repro.cli' in sys.modules)"],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.stdout.strip() == "False", result.stderr
