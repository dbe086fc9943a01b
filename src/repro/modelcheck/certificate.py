"""Replayable schedule certificates: serialize, shrink, replay.

A certificate is the complete recipe for reproducing one explored
schedule: the scenario name, the exact fault plan (embedded as a
document, not a profile reference, so replays survive profile
retuning), and the densified choice map.  Replay needs no sleep-set
machinery — a choice map plus FIFO continuation is fully
deterministic — so a certificate written by a 4-worker farmed
exploration replays byte-identically in a bare interpreter:

    python -m repro replay gmc_certs/lost-doorbell.json

Every find — an ``explore`` hit or a seeded corpus bug — is certified
by :func:`certify`: *shrunk* (greedy 1-minimal reduction, repeatedly
dropping any single choice whose removal still reproduces one of the
target rules), replayed, and recorded with the replay's verdict.  The
corpus's ordering bugs shrink to a single choice — the one reordered
pop that is the bug — and its visible bugs certify with an empty
choice map.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.modelcheck.explore import run_schedule
from repro.modelcheck.scenarios import build_scenario, scenario_names
from repro.modelcheck.schedule import ScheduleError

__all__ = [
    "CERT_FORMAT",
    "CERT_VERSION",
    "certify",
    "densify",
    "load_certificate",
    "make_certificate",
    "render_certificate",
    "replay",
    "save_certificate",
    "shrink",
]

CERT_FORMAT = "gmc-certificate"
CERT_VERSION = 2

Choices = Tuple[Tuple[int, int], ...]


def densify(choices: Iterable[Sequence[int]]) -> Choices:
    """Canonical form: drop rank-0 (FIFO) entries, sort by decision."""
    return tuple(
        sorted((int(d), int(r)) for d, r in choices if int(r) != 0)
    )


def make_certificate(
    scenario: str,
    choices: Iterable[Sequence[int]],
    plan: Optional[dict] = None,
    profile: Optional[str] = None,
    seed: int = 1,
    rules: Optional[Dict[str, int]] = None,
    violations: Optional[List[str]] = None,
) -> dict:
    """Build a certificate document (plain dict, JSON-serializable).

    ``plan`` is the exact fault-plan document
    (:meth:`~repro.faults.plan.FaultPlan.as_dict`); ``profile`` is
    recorded as provenance only — replay uses the embedded plan.
    """
    return {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "scenario": scenario,
        "choices": [list(pair) for pair in densify(choices)],
        "plan": plan,
        "profile": profile,
        "seed": seed,
        "rules": dict(rules or {}),
        "violations": list(violations or []),
    }


def save_certificate(cert: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(cert, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path: str) -> dict:
    """Read a certificate, refusing (``ValueError`` naming ``path``) one
    whose scenario, choice pairs, plan or seed this build cannot replay."""
    with open(path) as fh:
        cert = json.load(fh)
    if not isinstance(cert, dict) or cert.get("format") != CERT_FORMAT:
        raise ValueError(f"{path}: not a {CERT_FORMAT} document")
    if cert.get("version") != CERT_VERSION:
        raise ValueError(
            f"{path}: certificate version {cert.get('version')}, "
            f"this build reads v{CERT_VERSION}"
        )
    scenario, choices, plan = cert.get("scenario"), cert.get("choices"), cert.get("plan")
    if scenario not in scenario_names():
        raise ValueError(f"{path}: unknown scenario {scenario!r}")
    if not isinstance(choices, list) or not all(
        isinstance(pair, list) and len(pair) == 2
        and all(type(n) is int for n in pair)
        for pair in choices
    ):
        raise ValueError(
            f"{path}: choices must be [decision, rank] integer pairs, "
            f"not {choices!r}"
        )
    if plan is not None and not isinstance(plan, dict):
        raise ValueError(f"{path}: plan must be a FaultPlan document, not {plan!r}")
    if type(cert.get("seed", 1)) is not int:
        raise ValueError(f"{path}: seed must be an integer, not {cert['seed']!r}")
    try:
        build_scenario(scenario, plan=plan)
    except (TypeError, ValueError) as err:  # a bad plan, or one on a micro scenario
        raise ValueError(f"{path}: {err}") from None
    return cert


def replay(cert: Union[dict, str]) -> dict:
    """Re-run a certificate's schedule; returns the run-result dict.

    Accepts a loaded document or a path.  The replay is guided purely
    by the choice map (no sleep sets), so two replays of one
    certificate produce byte-identical tracepoint streams — the
    determinism contract ``tests/test_modelcheck_determinism.py``
    asserts.  A choice the run never offers (a rank out of range, or a
    decision that never comes) raises
    :class:`~repro.modelcheck.schedule.ScheduleError`.
    """
    if isinstance(cert, str):
        cert = load_certificate(cert)
    return run_schedule(
        cert["scenario"],
        densify(cert["choices"]),
        plan=cert.get("plan"),
        seed=int(cert.get("seed", 1)),
    )


def shrink(
    scenario: str,
    choices: Iterable[Sequence[int]],
    must_hit: Iterable[str],
    plan: Optional[dict] = None,
    seed: int = 1,
) -> Tuple[Choices, int]:
    """Greedy 1-minimal shrink: drop choices while the bug reproduces.

    A candidate reproduces when a fresh guided run still hits at least
    one of the ``must_hit`` GSan rules.  Dropping a choice can shift the
    decisions after it, so a candidate whose remaining choices no longer
    fit the run (:class:`~repro.modelcheck.schedule.ScheduleError`)
    does not reproduce.  Returns the shrunk choice map (1-minimal:
    removing any single remaining choice loses the bug) and the number
    of reduction runs spent.
    """
    target = set(must_hit)
    if not target:
        raise ValueError("shrink needs at least one rule to preserve")

    def reproduces(candidate: Choices) -> bool:
        try:
            result = run_schedule(
                scenario, candidate, plan=plan, seed=seed, record_limit=0
            )
        except ScheduleError:
            return False
        return not result["blocked"] and any(
            rule in result["rules"] for rule in target
        )

    current = densify(choices)
    if not reproduces(current):
        raise ValueError(
            f"schedule does not reproduce any of {sorted(target)} on "
            f"{scenario!r}; nothing to shrink"
        )
    attempts = 1
    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            trial = current[:index] + current[index + 1 :]
            attempts += 1
            if reproduces(trial):
                current = trial
                changed = True
                break
    return current, attempts


def certify(
    scenario: str,
    choices: Iterable[Sequence[int]],
    must_hit: Iterable[str],
    plan: Optional[dict] = None,
    profile: Optional[str] = None,
    seed: int = 1,
) -> Tuple[dict, int]:
    """Certify one find: shrink it, replay it, record the replay.

    ``choices`` is a violating schedule of ``scenario``.  Shrinking
    keeps at least one of the ``must_hit`` rules; a find with no rule
    (a crash, a liveness bound) or no choice to drop is kept whole.
    The certificate carries the replayed run's ``rules`` and
    ``violations``.  Returns it and the shrink runs spent.
    """
    current, attempts = densify(choices), 0
    target = set(must_hit)
    if current and target:
        current, attempts = shrink(scenario, current, target, plan=plan, seed=seed)
    replayed = run_schedule(scenario, current, plan=plan, seed=seed, record_limit=0)
    cert = make_certificate(
        scenario,
        current,
        plan=plan,
        profile=profile,
        seed=seed,
        rules=replayed["rules"],
        violations=replayed["violations"],
    )
    return cert, attempts


def render_certificate(cert: dict, result: Optional[dict] = None) -> str:
    """Human-readable certificate summary (+ replay verdict if given)."""
    lines = [
        f"GMC certificate: scenario {cert['scenario']!r}",
        f"  choices: "
        + (
            ", ".join(f"decision {d} -> rank {r}" for d, r in cert["choices"])
            or "(pure FIFO)"
        ),
    ]
    if cert.get("profile") or cert.get("plan"):
        lines.append(
            f"  fault plan: embedded"
            + (f" (from profile {cert['profile']!r})" if cert.get("profile") else "")
        )
    if cert.get("rules"):
        lines.append(
            "  rules: "
            + ", ".join(f"{k}={v}" for k, v in sorted(cert["rules"].items()))
        )
    if result is not None:
        lines.append("")
        lines.append("replayed verdict:")
        for violation in result["violations"]:
            lines.append(violation)
    return "\n".join(lines)
