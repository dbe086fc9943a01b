"""Discrete-event simulation engine underpinning the GENESYS model.

The engine is deliberately small and self-contained (no SimPy dependency):
simulation *processes* are plain Python generators that yield scheduling
primitives — a delay in nanoseconds, an :class:`Event`, another
:class:`Process`, or an :class:`AllOf` combinator — and the
:class:`Simulator` advances a global clock by draining a binary-heap event
queue.  Everything in the GPU, memory, and OS models is built from these
primitives plus the shared :mod:`repro.sim.resources` synchronisation
objects.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Delay,
    Event,
    Interrupted,
    Process,
    Simulator,
)
from repro.sim.resources import BandwidthResource, Resource, Store
from repro.sim.stats import UtilizationTracker

__all__ = [
    "AllOf",
    "AnyOf",
    "BandwidthResource",
    "Delay",
    "Event",
    "Interrupted",
    "Process",
    "Resource",
    "Simulator",
    "Store",
    "UtilizationTracker",
]
