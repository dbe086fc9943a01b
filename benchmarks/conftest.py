"""Shared helpers for the figure/table reproduction benchmarks.

Every benchmark runs a deterministic discrete-event experiment, prints
the rows/series the paper's figure reports (visible with ``pytest -s``),
asserts the paper's *shape* (who wins, roughly by what factor, where
crossovers fall), and records the measured numbers in the
pytest-benchmark ``extra_info`` for machine-readable output.
"""

from __future__ import annotations

from typing import List, Sequence

import pytest


def print_table(title: str, headers: Sequence[str], rows: List[Sequence]) -> None:
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header)), max((len(str(row[i])) for row in rows), default=0))
        for i, header in enumerate(headers)
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


def run_once(benchmark, fn):
    """Run a deterministic experiment exactly once under the benchmark
    fixture (simulated time is the metric; wall time is incidental)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def stash(benchmark, **info) -> None:
    for key, value in info.items():
        benchmark.extra_info[key] = value


@pytest.fixture
def table():
    return print_table
