"""The ``BENCH_serving.json`` trajectory document.

Schema-versioned so later PRs are judged on served RPS under an SLO,
not just microbenchmark latency: a point's shape is stable, reruns with
the same seed serialize byte-identically (``to_json`` is canonical:
sorted keys, fixed indent, no wall-clock timestamps), and
:func:`check_report` is the structural gate CI runs on the artifact.
"""

from __future__ import annotations

import json
from typing import List

SCHEMA = "repro-serving-bench"
#: v2: every point carries a ``windows`` time-series (per measure
#: window: sent/completed/completion/achieved_rps/latency_ns/drops),
#: its ``window_ns`` width, and point-level backlog ``drops`` counts
#: (global + per destination socket).
#: v3: ``lifecycle`` gains a ``rejected`` class — requests answered
#: with a QoS fast-fail frame (``b"E" + reqid + errno``), a deliberate
#: server verdict distinct from ``timeout``/``late``/``bad``.
SCHEMA_VERSION = 3

#: The overload-comparison document (``BENCH_overload.json``): the same
#: offered-load grid run bare and with a QoS plan, plus the goodput
#: retention gate CI enforces.
OVERLOAD_SCHEMA = "repro-serving-overload"
OVERLOAD_VERSION = 1
#: QoS goodput at ~2x the knee must hold this fraction of QoS goodput
#: at the knee (the ISSUE's "within 15%" no-collapse criterion).
OVERLOAD_MIN_RATIO = 0.85

_TOP_KEYS = (
    "schema", "version", "workload", "arrival", "zipf_s", "seed",
    "config", "slo", "points", "bisection", "max_sustainable_rps",
)
_POINT_KEYS = (
    "rps_target", "offered_rps", "achieved_rps", "completion",
    "latency_ns", "lifecycle", "served", "net", "elapsed_ns", "slo_ok",
    "window_ns", "windows", "drops",
)
_LATENCY_KEYS = ("count", "mean", "p50", "p95", "p99", "max")
_LIFECYCLE_KEYS = ("sent", "completed", "late", "timeout", "rejected",
                   "dup_replies")
_WINDOW_KEYS = (
    "t0_ns", "sent", "completed", "completion", "achieved_rps",
    "latency_ns", "drops",
)
_DROP_KEYS = ("backlog", "by_socket")


def build(config, points: List[dict], bisection: List[dict],
          max_sustainable_rps: float) -> dict:
    return {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "workload": config.workload,
        "arrival": config.arrival.as_dict(),
        "zipf_s": config.zipf_s,
        "seed": config.seed,
        "config": config.as_dict(),
        "slo": config.slo_dict(),
        "points": list(points),
        "bisection": list(bisection),
        "max_sustainable_rps": max_sustainable_rps,
    }


def to_json(doc: dict) -> str:
    """Canonical serialization: byte-identical for identical docs."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check_drops(where: str, drops) -> List[str]:
    if drops is None:
        return []
    if not isinstance(drops, dict):
        return [f"{where} is not an object"]
    problems = [f"{where} missing {key!r}" for key in _DROP_KEYS if key not in drops]
    by_socket = drops.get("by_socket")
    if by_socket is not None and not isinstance(by_socket, dict):
        problems.append(f"{where}.by_socket is not an object")
    return problems


def check_report(doc: dict) -> List[str]:
    """Structural validation; returns human-readable problems (empty ==
    the document is a well-formed serving trajectory)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, want object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if doc.get("version") != SCHEMA_VERSION:
        problems.append(
            f"version is {doc.get('version')!r}, want {SCHEMA_VERSION}"
        )
    for key in _TOP_KEYS:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        problems.append("points must be a non-empty list")
        points = []
    targets = [p.get("rps_target") for p in points if isinstance(p, dict)]
    if any(b <= a for a, b in zip(targets, targets[1:])):
        problems.append(f"points' rps_target grid is not strictly increasing: {targets}")
    for where, point in (
        [(f"points[{i}]", p) for i, p in enumerate(points)]
        + [(f"bisection[{i}]", p) for i, p in enumerate(doc.get("bisection") or [])]
    ):
        if not isinstance(point, dict):
            problems.append(f"{where} is {type(point).__name__}, want object")
            continue
        for key in _POINT_KEYS:
            if key not in point:
                problems.append(f"{where} missing {key!r}")
        latency = point.get("latency_ns")
        if isinstance(latency, dict):
            for key in _LATENCY_KEYS:
                if key not in latency:
                    problems.append(f"{where}.latency_ns missing {key!r}")
        elif "latency_ns" in point:
            problems.append(f"{where}.latency_ns is not an object")
        lifecycle = point.get("lifecycle")
        if isinstance(lifecycle, dict):
            for key in _LIFECYCLE_KEYS:
                if key not in lifecycle:
                    problems.append(f"{where}.lifecycle missing {key!r}")
        elif "lifecycle" in point:
            problems.append(f"{where}.lifecycle is not an object")
        problems.extend(_check_drops(f"{where}.drops", point.get("drops")))
        windows = point.get("windows")
        if isinstance(windows, list):
            if not windows:
                problems.append(f"{where}.windows must be non-empty")
            starts = []
            for j, win in enumerate(windows):
                wwhere = f"{where}.windows[{j}]"
                if not isinstance(win, dict):
                    problems.append(
                        f"{wwhere} is {type(win).__name__}, want object"
                    )
                    continue
                for key in _WINDOW_KEYS:
                    if key not in win:
                        problems.append(f"{wwhere} missing {key!r}")
                wlat = win.get("latency_ns")
                if isinstance(wlat, dict):
                    for key in _LATENCY_KEYS:
                        if key not in wlat:
                            problems.append(f"{wwhere}.latency_ns missing {key!r}")
                elif "latency_ns" in win:
                    problems.append(f"{wwhere}.latency_ns is not an object")
                problems.extend(
                    _check_drops(f"{wwhere}.drops", win.get("drops"))
                )
                if isinstance(win.get("t0_ns"), (int, float)):
                    starts.append(win["t0_ns"])
            if any(b <= a for a, b in zip(starts, starts[1:])):
                problems.append(
                    f"{where}.windows t0_ns not strictly increasing"
                )
        elif "windows" in point:
            problems.append(f"{where}.windows is not a list")
        window_ns = point.get("window_ns")
        if "window_ns" in point and (
            not isinstance(window_ns, (int, float)) or window_ns <= 0
        ):
            problems.append(
                f"{where}.window_ns is {window_ns!r}, want a positive number"
            )
    max_rps = doc.get("max_sustainable_rps")
    if not isinstance(max_rps, (int, float)) or max_rps < 0:
        problems.append(f"max_sustainable_rps is {max_rps!r}, want a number >= 0")
    slo = doc.get("slo")
    if not isinstance(slo, dict) or "p99_ns" not in slo or "min_completion" not in slo:
        problems.append("slo must be an object with p99_ns and min_completion")
    return problems


# -- the overload-comparison document ----------------------------------------


def _nearest_point(points: List[dict], rps: float) -> dict:
    return min(points, key=lambda p: abs(p["rps_target"] - rps))


def build_overload(config, plan, knee_rps: int, baseline: List[dict],
                   qos_points: List[dict],
                   min_ratio: float = OVERLOAD_MIN_RATIO) -> dict:
    """Assemble ``BENCH_overload.json``: both curves plus the goodput
    retention gate (QoS goodput at ~2x knee vs at the knee)."""
    knee = _nearest_point(qos_points, knee_rps)
    twox = _nearest_point(qos_points, 2 * knee_rps)
    base_knee = _nearest_point(baseline, knee_rps)
    base_twox = _nearest_point(baseline, 2 * knee_rps)
    knee_goodput = knee["achieved_rps"]
    twox_goodput = twox["achieved_rps"]
    ratio = twox_goodput / knee_goodput if knee_goodput > 0 else 0.0
    base_ratio = (
        base_twox["achieved_rps"] / base_knee["achieved_rps"]
        if base_knee["achieved_rps"] > 0 else 0.0
    )
    return {
        "schema": OVERLOAD_SCHEMA,
        "version": OVERLOAD_VERSION,
        "workload": config.workload,
        "config": config.as_dict(),
        "knee_rps": int(knee_rps),
        "plan": plan.as_dict(),
        "baseline": list(baseline),
        "qos": list(qos_points),
        "gate": {
            "knee_goodput_rps": knee_goodput,
            "goodput_2x_rps": twox_goodput,
            "ratio": ratio,
            "baseline_ratio": base_ratio,
            "min_ratio": min_ratio,
            "ok": bool(ratio >= min_ratio),
        },
    }


_OVERLOAD_TOP_KEYS = (
    "schema", "version", "workload", "config", "knee_rps", "plan",
    "baseline", "qos", "gate",
)
_GATE_KEYS = (
    "knee_goodput_rps", "goodput_2x_rps", "ratio", "baseline_ratio",
    "min_ratio", "ok",
)


def check_overload(doc: dict) -> List[str]:
    """Structural + gate validation of an overload document.  An empty
    return means well-formed AND the no-collapse gate held."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, want object"]
    if doc.get("schema") != OVERLOAD_SCHEMA:
        problems.append(
            f"schema is {doc.get('schema')!r}, want {OVERLOAD_SCHEMA!r}"
        )
    for key in _OVERLOAD_TOP_KEYS:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    for curve in ("baseline", "qos"):
        points = doc.get(curve)
        if not isinstance(points, list) or not points:
            problems.append(f"{curve} must be a non-empty list of points")
            continue
        for i, point in enumerate(points):
            if not isinstance(point, dict):
                problems.append(f"{curve}[{i}] is not an object")
                continue
            for key in ("rps_target", "achieved_rps", "completion",
                        "latency_ns", "lifecycle"):
                if key not in point:
                    problems.append(f"{curve}[{i}] missing {key!r}")
    gate = doc.get("gate")
    if not isinstance(gate, dict):
        problems.append("gate must be an object")
    else:
        for key in _GATE_KEYS:
            if key not in gate:
                problems.append(f"gate missing {key!r}")
        if not gate.get("ok", False):
            problems.append(
                f"goodput gate FAILED: 2x-knee/knee ratio "
                f"{gate.get('ratio', 0.0):.3f} < min {gate.get('min_ratio')!r}"
            )
    return problems


def render_overload(doc: dict) -> str:
    """Side-by-side offered-vs-goodput table, baseline vs QoS."""
    base = {p["rps_target"]: p for p in doc["baseline"]}
    qos = {p["rps_target"]: p for p in doc["qos"]}
    gate = doc["gate"]
    lines = [
        f"overload: {doc['workload']}  knee={doc['knee_rps']} RPS  "
        f"sojourn_budget={doc['plan']['sojourn_budget_ns'] / 1e3:.0f} us",
        f"{'offered':>8} | {'base good':>10} {'compl':>6} {'p99us':>7} | "
        f"{'qos good':>10} {'compl':>6} {'p99us':>7} {'rejected':>8}",
    ]
    for rps in sorted(set(base) | set(qos)):
        b, q = base.get(rps), qos.get(rps)
        row = f"{rps:>8} |"
        if b is not None:
            row += (f" {b['achieved_rps']:>10.0f} {b['completion']:>6.3f} "
                    f"{b['latency_ns']['p99'] / 1e3:>7.1f} |")
        else:
            row += f" {'-':>10} {'-':>6} {'-':>7} |"
        if q is not None:
            row += (f" {q['achieved_rps']:>10.0f} {q['completion']:>6.3f} "
                    f"{q['latency_ns']['p99'] / 1e3:>7.1f} "
                    f"{q['lifecycle'].get('rejected', 0):>8}")
        lines.append(row)
    lines.append(
        f"goodput retention at 2x knee: qos {gate['ratio']:.3f} "
        f"(baseline {gate['baseline_ratio']:.3f}), "
        f"gate {'ok' if gate['ok'] else 'FAILED'} "
        f"(min {gate['min_ratio']:.2f})"
    )
    return "\n".join(lines)


def render(doc: dict) -> str:
    """Human-readable curve table for one trajectory document."""
    lines = [
        f"serving: {doc['workload']}  arrival={doc['arrival']['kind']}  "
        f"zipf_s={doc['zipf_s']}  seed={doc['seed']}",
        f"SLO: p99 <= {doc['slo']['p99_ns'] / 1e3:.0f} us and completion >= "
        f"{doc['slo']['min_completion']:.2f}",
        f"{'target':>8} {'offered':>9} {'achieved':>9} {'compl':>6} "
        f"{'p50us':>7} {'p95us':>7} {'p99us':>7} {'drops':>6} {'slo':>4}",
    ]
    for point in sorted(
        doc["points"] + doc["bisection"], key=lambda p: p["rps_target"]
    ):
        latency = point["latency_ns"]
        drops = (point.get("drops") or {}).get("backlog", 0)
        lines.append(
            f"{point['rps_target']:>8} {point['offered_rps']:>9.0f} "
            f"{point['achieved_rps']:>9.0f} {point['completion']:>6.3f} "
            f"{latency['p50'] / 1e3:>7.1f} {latency['p95'] / 1e3:>7.1f} "
            f"{latency['p99'] / 1e3:>7.1f} {drops:>6} "
            f"{'ok' if point['slo_ok'] else 'MISS':>4}"
        )
    lines.append(f"max sustainable RPS under SLO: {doc['max_sustainable_rps']:.0f}")
    return "\n".join(lines)
