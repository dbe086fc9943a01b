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
import gc

import pytest

from repro import experiments
from repro.cli import AttachPlan, attach_spec
from repro.metrics import MetricsHubPlan, metrics_hubs
from repro.modelcheck.schedule import FifoSchedulePlan
from repro.probes.tracepoints import attached
from repro.tracing.spans import SpanTracer, install_tracer
from tests.test_machine_lifetime import collector_paused


def probe_spec(text):
    """``--attach TEXT`` as the command line applies it (``gsan`` is how
    ``run NAME --attach gsan`` checks a run)."""
    return lambda: AttachPlan([attach_spec(text)])


def lifetime_count(hubs):
    """Fires ``hubs`` took in: counter totals and histogram counts."""
    return sum(
        estimator.lifetime.count if estimator.kind == "histogram" else estimator.total
        for hub in hubs
        for estimator in hub.metrics.values()
        if estimator.kind in ("counter", "histogram")
    )


def own_lifetime_count(plan, registries):
    """Fires the spec's own hubs took in (every hub is labelled with
    its spec)."""
    (spec,) = plan.specs
    return lifetime_count(
        hub
        for registry in registries
        for hub in metrics_hubs(registry)
        if hub.label == spec.text
    )


def traced_invocations(_plan, registries):
    """Invocations the span tracers on ``registries`` completed."""
    return sum(
        len(program.completed)
        for registry in registries
        for program in registry.programs
        if isinstance(program, SpanTracer)
    )


NEUTRAL_PLANS = (
    ("counters", probe_spec("counter:*:key=0"), own_lifetime_count),
    ("syscall-histogram", probe_spec("hist:syscall.complete:value=2"),
     own_lifetime_count),
    ("irq-rate", probe_spec("rate:irq.raised:5000"), own_lifetime_count),
    ("spans", lambda: install_tracer, traced_invocations),
    ("metrics-hub", MetricsHubPlan, lambda plan, _: lifetime_count(plan.hubs)),
    ("gsan", probe_spec("gsan"), lambda plan, _: plan.gsan.events),
    ("fifo-tie-break", FifoSchedulePlan, lambda plan, _: plan.installed),
)


@functools.lru_cache(maxsize=None)
def bare_render(name):
    """The bare run's text.  The run must leave nothing for the cyclic
    collector: every machine it built was closed where its run ended."""
    with collector_paused():
        text = experiments.run(name).render()
        leftover = gc.collect()
    assert leftover == 0, f"{name} left {leftover} objects in reference cycles"
    return text


def render_attached(name, *plans):
    """Render ``name`` under ``plans``; returns (text, registries seen)."""
    registries = []
    with attached(registries.append, *plans):
        return experiments.run(name).render(), registries


@pytest.mark.parametrize("name", experiments.all_names())
def test_every_experiment_byte_identical_under_every_observer(name):
    plans = {row_id: make() for row_id, make, _evidence in NEUTRAL_PLANS}
    rendered, _registries = render_attached(name, *plans.values())
    assert rendered == bare_render(name)
    violations = plans["gsan"].gsan.finish()
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
