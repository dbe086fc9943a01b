"""The observer-neutrality oracle: attached == bare, for every observer.

Every observer in ``NEUTRAL_PLANS`` is a pure observer (or, for the FIFO
tie-break, a policy pinned to the default decision), so running an
experiment with all of them attached at once must render byte-identical
output to the bare run, with GSan reporting zero violations.  The full
sweep composes every row on the attach stack over all experiments; a
per-row check on fig2 and fig7 names the culprit when the sweep fails and
proves each row non-vacuous, and a composed check on fig2 proves no row is
shadowed by the others on the stack.

A new observer joins the oracle with one row: ``(id, make, evidence)``,
where ``make()`` returns a fresh attach plan and ``evidence(plan,
registries)`` is a count that is above zero once the plan observed a run.
"""

import functools

import pytest

from repro import experiments
from repro.metrics import MetricsHubPlan
from repro.modelcheck.schedule import FifoSchedulePlan
from repro.probes.programs import CounterProbe, LatencyHistogram, RateMeter
from repro.probes.tracepoints import attached
from repro.sanitizers.gsan import GSanPlan
from repro.tracing.spans import install_tracer


def counters(registry):
    for tp in registry.match("*"):
        registry.attach(tp.name, CounterProbe(registry, key_arg=0))


def syscall_histogram(registry):
    registry.attach("syscall.complete", LatencyHistogram(registry, value_arg=2))


def irq_rate(registry):
    registry.attach("irq.raised", RateMeter(registry, bin_ns=5000.0))


def tracepoint_hits(_plan, registries):
    return sum(tp.hits for registry in registries for tp in registry.tracepoints.values())


NEUTRAL_PLANS = (
    ("counters", lambda: counters, tracepoint_hits),
    ("syscall-histogram", lambda: syscall_histogram, tracepoint_hits),
    ("irq-rate", lambda: irq_rate, tracepoint_hits),
    ("spans", lambda: install_tracer, tracepoint_hits),
    ("metrics-hub", MetricsHubPlan, lambda plan, _: sum(hub.ticks for hub in plan.hubs)),
    ("gsan", GSanPlan, lambda plan, _: plan.events),
    ("fifo-tie-break", FifoSchedulePlan, lambda plan, _: plan.installed),
)


@functools.lru_cache(maxsize=None)
def bare_render(name):
    return experiments.run(name).render()


def render_attached(name, *plans):
    """Render ``name`` under ``plans``; returns (text, registries seen)."""
    registries = []
    with attached(registries.append, *plans):
        return experiments.run(name).render(), registries


@pytest.mark.parametrize("name", experiments.all_names())
def test_every_experiment_byte_identical_under_every_observer(name):
    plans = [make() for _id, make, _evidence in NEUTRAL_PLANS]
    rendered, _registries = render_attached(name, *plans)
    assert rendered == bare_render(name)
    gsan = next(plan for plan in plans if isinstance(plan, GSanPlan))
    violations = gsan.finish()
    assert violations == [], "\n".join(v.render() for v in violations)


@functools.lru_cache(maxsize=None)
def composed_run(name):
    """Run ``name`` under every row at once, recording which registries
    each row's plan was applied to; returns (plans, applied, registries)."""
    plans = [make() for _id, make, _evidence in NEUTRAL_PLANS]
    applied = [[] for _ in plans]

    def recorded(plan, seen):
        def apply(registry):
            seen.append(registry)
            plan(registry)
        return apply

    wrapped = [recorded(plan, seen) for plan, seen in zip(plans, applied)]
    _rendered, registries = render_attached(name, *wrapped)
    return plans, applied, registries


@pytest.mark.parametrize(
    "index, evidence",
    [(index, row[2]) for index, row in enumerate(NEUTRAL_PLANS)],
    ids=[row[0] for row in NEUTRAL_PLANS],
)
def test_each_observer_sees_every_system_when_composed(index, evidence):
    plans, applied, registries = composed_run("fig2")
    assert registries, "fig2 built no System"
    assert applied[index] == registries, "a composed row missed a System"
    assert evidence(plans[index], registries) > 0, "the plan observed nothing"


@pytest.mark.parametrize("name", ["fig2", "fig7"])
@pytest.mark.parametrize(
    "make, evidence",
    [row[1:] for row in NEUTRAL_PLANS],
    ids=[row[0] for row in NEUTRAL_PLANS],
)
def test_each_observer_alone_is_neutral_and_observes(make, evidence, name):
    plan = make()
    rendered, registries = render_attached(name, plan)
    assert rendered == bare_render(name)
    assert registries, f"{name} built no System"
    assert evidence(plan, registries) > 0, "the plan observed nothing"
