"""A machine ends where its run ends.

Parked processes and components that call back into one another make
every simulated machine a reference cycle, so a dropped machine used to
wait for the cyclic collector.  ``System.close()`` breaks those cycles,
and everything that ends a machine's life closes it: each experiment
variant (``with System(...)``) and the checked-run cell, whatever the
run's outcome.  These tests pause the collector and make it save what
it would free, so a cycle shows up in ``gc.garbage`` instead of
vanishing.  A closing machine must also change nothing a caller reads
afterwards, and fire no tracepoint.
"""

import ast
import gc
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.genesys import GenesysError
from repro.faults.chaos import PROFILES
from repro.faults.plan import FaultPlan
from repro.machine import small_machine
from repro.metrics import MetricsHubPlan
from repro.modelcheck.explore import run_schedule
from repro.modelcheck.scenarios import build_workload
from repro.oskernel.linux import LinuxKernel
from repro.oskernel.workqueue import DrainTimeout
from repro.probes.exporters import metrics_snapshot
from repro.sanitizers.gsan import GSan
from repro.sim.engine import Simulator
from repro.system import System

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@contextmanager
def collector_paused():
    """The cyclic collector paused, and anything it would free saved in
    ``gc.garbage`` instead, so a cycle shows up rather than vanishing."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.fixture
def collector_off():
    with collector_paused():
        yield


def one_pread(system):
    """Figure 2's walk: one blocking work-item pread."""
    system.kernel.fs.create_file("/tmp/one", b"W" * 4096)
    buf = system.memsystem.alloc_buffer(4096)

    def kern(ctx):
        fd = yield from ctx.sys.open("/tmp/one")
        yield from ctx.sys.pread(fd, buf, 4096, 0)

    system.run_kernel(kern, 1, 1)


def test_a_closed_machine_is_freed_by_reference_counting(collector_off):
    with System() as system:
        one_pread(system)
        stats = system.genesys.stats()
        hits = {name: tp.hits for name, tp in system.probes.tracepoints.items()}
        now = system.now
    assert stats["syscalls_completed"] == 2
    assert (system.now, system.genesys.stats()) == (now, stats)
    assert {name: tp.hits for name, tp in system.probes.tracepoints.items()} == hits
    machine = weakref.ref(system)
    del system
    assert machine() is None
    assert gc.collect() == 0


def test_a_closed_machine_refuses_work(collector_off):
    with System(config=small_machine()) as system:
        pass

    def kern(ctx):
        yield from ctx.sys.getrusage()

    with pytest.raises(GenesysError, match="closed machine"):
        system.run_kernel(kern, 1, 1)


def simulators():
    """Simulators alive: a machine that neither refcounting nor the
    collector freed still has one."""
    return sum(type(obj) is Simulator for obj in gc.get_objects())


def fig2_schedule(choices=(), **kwargs):
    return run_schedule("fig2", choices, seed=1, **kwargs)


def crash_on_pread(monkeypatch):
    def pread(*_args):
        raise RuntimeError("pread blew up")
        yield  # pragma: no cover - a generator, like the syscall it replaces

    monkeypatch.setattr(LinuxKernel, "sys_pread", pread)


#: Every worker pickup is killed, so no call ever completes and the
#: spinning lanes run into the drain bound.
LIVENESS_PLAN = FaultPlan(seed=5, worker_kill=1.0)


@pytest.mark.parametrize("outcome", ["ok", "blocked", "crash", "liveness"])
def test_an_explored_schedule_leaves_nothing(outcome, monkeypatch):
    kwargs = {"profile": "fig2"}
    warm = fig2_schedule(**kwargs)  # first-use imports and caches are not the run's
    if outcome == "blocked":
        # Put the first decision's FIFO pick to sleep: the run stops there.
        (_rank, seq, _label) = warm["decisions"][0]["candidates"][0]
        kwargs.update(choices=((0, 0),), sleep=((seq, None),))
    elif outcome == "crash":
        crash_on_pread(monkeypatch)
    elif outcome == "liveness":
        kwargs = {"plan": LIVENESS_PLAN.as_dict()}
    with collector_paused():
        before = simulators()
        result = fig2_schedule(**kwargs)
        assert gc.collect() == 0
        assert simulators() == before
    if outcome == "ok":
        assert result["ok"]
    elif outcome == "blocked":
        assert result["blocked"]
    else:
        expected = "crash: RuntimeError" if outcome == "crash" else "liveness:"
        assert result["violations"][0].startswith(expected)


def test_closing_a_wedged_machine_fires_nothing(collector_off):
    """CI's liveness cell (serving, seed 1, intensity 20) bounded at
    10 ms instead of 2 s: every worker pickup is killed, and the four
    wavefronts are still spinning when the bound stops the run.  Closing
    them runs the wavefront executor's ``finally``, which would report
    the occupancy change to every attached hub."""
    plan = PROFILES["serving"].with_seed(1).scaled(20)
    built, system, _injector = build_workload("serving", plan, drain_timeout_ns=1e7)
    MetricsHubPlan()(system.probes)
    sanitizer = GSan().install(system.probes)
    with pytest.raises(DrainTimeout):
        built.body()
    before = metrics_snapshot(system.probes), sanitizer.events
    system.close()
    assert (metrics_snapshot(system.probes), sanitizer.events) == before


def gc_collect_callers(path):
    """``(module, innermost enclosing function)`` of every ``gc.collect``
    reference in ``path``; ``<module>`` outside any function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    module = path.relative_to(SRC).as_posix()
    for node in ast.walk(tree):
        imported = isinstance(node, ast.ImportFrom) and node.module == "gc"
        attribute = (
            isinstance(node, ast.Attribute)
            and node.attr == "collect"
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
        )
        if imported or attribute:
            inside = [
                func for func in functions
                if func.lineno <= node.lineno <= func.end_lineno
            ]
            innermost = max(inside, key=lambda func: func.lineno, default=None)
            yield module, innermost.name if innermost else "<module>"


def test_collections_run_only_at_the_two_places_that_need_them():
    """Machines free themselves, so no boundary ``gc.collect()`` comes
    back: only the run farm's pre-fork freeze and ``build_target``,
    whose callers keep their machines, collect."""
    callers = {
        caller for path in SRC.rglob("*.py") for caller in gc_collect_callers(path)
    }
    assert callers == {
        ("runfarm/__init__.py", "run_jobs"),
        ("serving/sweep.py", "build_target"),
    }
