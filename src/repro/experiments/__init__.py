"""Reproduction experiments: one module per paper table/figure.

Every module exposes ``NAME``, ``TITLE``, and ``run() ->
ExperimentResult``; the registry below maps names to modules.  The
``benchmarks/`` tree wraps these with pytest-benchmark and shape
assertions; ``python -m repro run NAME`` runs them standalone and
prints the paper-style tables.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass
class ExperimentTable:
    """One printable table of an experiment's output."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence]

    def render(self) -> str:
        widths = [
            max(len(str(header)), max((len(str(row[i])) for row in self.rows), default=0))
            for i, header in enumerate(self.headers)
        ]
        lines = [f"=== {self.title} ==="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        for row in self.rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Everything an experiment produced: tables for humans, data for
    assertions."""

    name: str
    tables: List[ExperimentTable] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables)

    def add_table(self, title: str, headers: Sequence[str], rows: List[Sequence]) -> None:
        self.tables.append(ExperimentTable(title, headers, rows))


#: name -> module path (relative to this package).
REGISTRY: Dict[str, str] = {
    "fig1": "fig1_motivation",
    "fig2": "fig2_walkthrough",
    "fig7": "fig7_granularity",
    "fig8": "fig8_ordering",
    "fig9": "fig9_polling",
    "fig10": "fig10_coalescing",
    "fig11": "fig11_miniamr",
    "fig12": "fig12_signals",
    "fig13a": "fig13a_grep",
    "fig13b": "fig13b_wordcount",
    "fig14": "fig14_io",
    "fig15": "fig15_memcached",
    "fig16": "fig16_framebuffer",
    "table1": "table1_applications",
    "table2": "table2_classification",
    "table4": "table4_atomics",
    "ablation-slots": "ablation_slots",
    "ablation-buffers": "ablation_buffers",
    "ext-sensitivity": "ext_sensitivity",
    "ext-scaling": "ext_scaling",
}


def load(name: str):
    """Import the experiment module registered under ``name``."""
    try:
        module_name = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(sorted(REGISTRY))}"
        ) from None
    return importlib.import_module(f"repro.experiments.{module_name}")


def run(name: str) -> ExperimentResult:
    """Run one experiment by registry name."""
    return load(name).run()


def all_names() -> List[str]:
    return list(REGISTRY)
