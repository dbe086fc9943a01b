"""The load-bearing probes guarantee at a single point: attaching
observer programs leaves simulated results byte-identical, and the
attached programs really do see events.  The whole-suite sweep over
every observer lives in ``tests/test_observer_neutrality.py``."""

from repro import experiments
from repro.experiments.fig10_coalescing import COALESCE, latency_per_byte
from repro.probes.tracepoints import attached

from tests.test_observer_neutrality import NEUTRAL_PLANS


def attach_everything(registry):
    """Every row of the neutrality oracle at once — the heaviest
    supported load."""
    for _id, make, _evidence in NEUTRAL_PLANS:
        make()(registry)


class TestObserverDeterminism:
    def test_fig10_point_byte_identical(self):
        def setup(system):
            attach_everything(system.probes)

        bare = latency_per_byte(1024, COALESCE)
        probed = latency_per_byte(1024, COALESCE, setup=setup)
        assert probed == bare

    def test_probes_actually_observed_something(self):
        """Guard against vacuous determinism: the instrumented run must
        really have delivered events."""
        captured = []
        with attached(attach_everything, captured.append):
            experiments.run("fig2")
        assert captured
        registry = captured[0]
        total_hits = sum(tp.hits for tp in registry.tracepoints.values())
        assert total_hits > 0
        assert registry.get("syscall.complete").hits > 0
