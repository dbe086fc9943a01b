"""The committed perf ledger (``PERF_LEDGER.json``): one row per claimed
host-cost gain, in the names ``BENCHMARK.json`` declares."""

import fnmatch
import json
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
LEDGER = json.loads((REPO / "PERF_LEDGER.json").read_text())
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())

FIELDS = {
    "pr": int,
    "workload": str,
    "metric": str,
    "parent": (int, float),
    "change": (int, float),
    "pairs": int,
    "wins": int,
    "parent_iqr": (int, float),
    "sim_events": (int, type(None)),
}
METRICS = {
    metric["name"]: metric
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}


def test_ledger_is_not_ignored():
    """``.gitignore`` ignores ``BENCH_*.json`` outputs; the ledger must
    match none of its patterns, or it would never be committed."""
    patterns = [
        line.strip()
        for line in (REPO / ".gitignore").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert not [p for p in patterns if fnmatch.fnmatch("PERF_LEDGER.json", p)]


def test_rows_follow_the_schema():
    assert set(LEDGER) == {"description", "rows"}
    assert LEDGER["rows"]
    for row in LEDGER["rows"]:
        assert set(row) == set(FIELDS), row
        for field, kind in FIELDS.items():
            assert isinstance(row[field], kind) and not isinstance(row[field], bool), (
                row, field,
            )
        assert row["workload"] in WORKLOADS, row
        assert row["metric"] in METRICS, row
        assert 0 <= row["wins"] <= row["pairs"], row
        assert row["parent_iqr"] >= 0, row


def test_rows_are_in_change_order():
    numbers = [row["pr"] for row in LEDGER["rows"]]
    assert numbers == sorted(set(numbers))


def test_every_row_meets_the_claim_rule():
    """Nine tenths of the pairs won, and the medians further apart than
    the parent's own spread, in the metric's better direction."""
    for row in LEDGER["rows"]:
        gain = row["parent"] - row["change"]
        if METRICS[row["metric"]]["better"] == "higher":
            gain = -gain
        assert 10 * row["wins"] >= 9 * row["pairs"], row
        assert gain > row["parent_iqr"], row
