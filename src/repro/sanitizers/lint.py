"""``repro.lint`` — AST-based determinism and consistency lint.

The simulator's contract is *bit-exact reproducibility*: the same
seed must produce the same event stream, timestamps, and rendered
tables on every machine and every run.  The hazards that silently
break that contract are always the same few, so they are lint rules:

=========  ==============================================================
code       hazard
=========  ==============================================================
DET001     wall-clock use (``time``/``datetime``) in a deterministic zone
DET002     ``random`` module use in a deterministic zone (the stack's
           only sanctioned randomness is the seeded xorshift
           ``DeterministicRandom``)
DET003     iteration over a syntactic ``set``/``frozenset`` without
           ``sorted(...)`` — set order varies with PYTHONHASHSEED
DET004     ``id(...)`` used as a sort key or set member — object
           addresses differ across runs (``id()`` as an
           insertion-ordered dict key is fine and not flagged)
TP001      ``.fire(...)`` on an attribute matching no static tracepoint
           declaration
TP002      ``.fire(...)`` arity differs from the declaration
ERR001     ``Errno.<X>`` constant not defined in ``oskernel/errors.py``
SLOT001    hot-path class (slots protocol / engine inner loop) lost its
           ``__slots__`` declaration
SCHED001   ``heapq`` mutation of, or direct assignment to, a
           simulator ``_heap`` outside ``sim/engine.py`` — such events
           bypass the ``Simulator.tie_break`` hook, so the model
           checker cannot reorder them and a schedule certificate
           replayed over them diverges; schedule through the engine's
           public API instead
=========  ==============================================================

Determinism rules (DET*) apply only inside the *deterministic zones*
— ``sim/``, ``core/``, ``oskernel/`` — where simulated behaviour
lives; reporting/CLI layers may legitimately timestamp things.  The
registry, errno, and ``__slots__`` rules apply everywhere.

A finding can be suppressed in place with ``# lint: allow`` (any
rule) or ``# lint: allow(DET003)`` on the offending line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

from repro.sanitizers.astutil import check_fire_sites, iter_py_files, parse_file

#: Directory names (as path segments) whose modules must be
#: wall-clock-free, randomness-free, and iteration-order stable.
DETERMINISM_ZONES = ("sim", "core", "oskernel")

#: Modules whose import into a deterministic zone is a hazard.
_WALL_CLOCK_MODULES = ("time", "datetime")

#: Hot-path classes (the allocation-lean inner loop, the slot protocol,
#: per-work-item state built for every launched work-item, and
#: per-event observer records) that must keep ``__slots__``: dropping it
#: silently re-grows every instance a dict.
HOTPATH_CLASSES: Set[str] = {
    "Slot",
    "SyscallRequest",
    "_SlotOps",
    "DeviceApi",
    "WorkItemCtx",
    "Spin",
    "_TaskRecord",
    "_Lane",
    "Tracepoint",
    "Event",
    "Process",
    "Simulator",
    "Timer",
    "AllOf",
    "AnyOf",
    "Delay",
    "InvocationTrace",
}


class LintFinding:
    """One lint rule violation at one source location."""

    __slots__ = ("code", "path", "line", "message")

    def __init__(self, code: str, path: str, line: int, message: str) -> None:
        self.code = code
        self.path = path
        self.line = line
        self.message = message

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def __repr__(self) -> str:
        return f"LintFinding({self.render()!r})"


def _in_determinism_zone(path: Path) -> bool:
    return any(zone in path.parts for zone in DETERMINISM_ZONES)


def _allowed(source_lines: List[str], line: int, code: str) -> bool:
    """Whether the flagged line carries a matching allow pragma."""
    if not 1 <= line <= len(source_lines):
        return False
    text = source_lines[line - 1]
    if "# lint: allow" not in text:
        return False
    pragma = text.split("# lint: allow", 1)[1].strip()
    if not pragma.startswith("("):
        return True  # bare "# lint: allow" silences every rule
    codes = pragma[1:].split(")", 1)[0]
    return code in [c.strip() for c in codes.split(",")]


def _parents(tree: ast.Module) -> Dict[int, ast.AST]:
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _is_set_expression(node: ast.AST) -> bool:
    """Syntactically a set: display, comprehension, or set()/frozenset()."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Zone:
    """Per-file determinism-rule visitor state."""

    def __init__(self, path: str, findings: List[LintFinding]) -> None:
        self.path = path
        self.findings = findings

    def flag(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            LintFinding(code, self.path, getattr(node, "lineno", 0), message)
        )


def _check_determinism(tree: ast.Module, zone: _Zone) -> None:
    parents = _parents(tree)
    for node in ast.walk(tree):
        # DET001 / DET002: hazardous module imports.
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _WALL_CLOCK_MODULES:
                    zone.flag(
                        "DET001", node,
                        f"wall-clock module {root!r} imported in a "
                        f"deterministic zone",
                    )
                elif root == "random":
                    zone.flag(
                        "DET002", node,
                        "'random' imported in a deterministic zone; use the "
                        "seeded DeterministicRandom",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in _WALL_CLOCK_MODULES:
                zone.flag(
                    "DET001", node,
                    f"wall-clock module {root!r} imported in a deterministic "
                    f"zone",
                )
            elif root == "random":
                zone.flag(
                    "DET002", node,
                    "'random' imported in a deterministic zone; use the "
                    "seeded DeterministicRandom",
                )
        # DET003: iterating a syntactic set.
        elif isinstance(node, ast.For):
            if _is_set_expression(node.iter):
                zone.flag(
                    "DET003", node.iter,
                    "iteration over an unordered set; wrap in sorted(...)",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expression(gen.iter):
                    zone.flag(
                        "DET003", gen.iter,
                        "comprehension over an unordered set; wrap in "
                        "sorted(...)",
                    )
        # DET004: id() feeding an ordering-sensitive container.
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            parent = parents.get(id(node))
            grand = parents.get(id(parent)) if parent is not None else None
            if isinstance(parent, (ast.Set, ast.SetComp)):
                zone.flag(
                    "DET004", node,
                    "id() placed in a set: object addresses vary per run",
                )
            elif (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Attribute)
                and parent.func.attr == "add"
                and node in parent.args
            ):
                zone.flag(
                    "DET004", node,
                    "id() added to a set: object addresses vary per run",
                )
            elif (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ("set", "frozenset", "sorted")
                and node in parent.args
            ):
                zone.flag(
                    "DET004", node,
                    "id() feeding an ordering-sensitive builtin",
                )
        # sorted(..., key=id) / sorted(..., key=lambda x: id(x))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id == "sorted"
        ):
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                uses_id = (
                    isinstance(value, ast.Name) and value.id == "id"
                ) or any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                    for sub in ast.walk(value)
                )
                if uses_id:
                    zone.flag(
                        "DET004", keyword.value,
                        "sorting by id(): object addresses vary per run",
                    )


def _errno_members(errors_path: Path) -> Optional[Set[str]]:
    """The Errno enum's member names, parsed statically."""
    if not errors_path.is_file():
        return None
    tree = parse_file(errors_path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Errno":
            members = set()
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            members.add(target.id)
            return members
    return None


def _check_errno(tree: ast.Module, zone: _Zone, members: Set[str]) -> None:
    non_members = {"__members__", "name", "value"}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "Errno"
            and node.attr not in members
            and node.attr not in non_members
        ):
            zone.flag(
                "ERR001", node,
                f"Errno.{node.attr} is not defined in oskernel/errors.py",
            )


def _check_slots(tree: ast.Module, zone: _Zone) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name not in HOTPATH_CLASSES:
            continue
        has_slots = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in stmt.targets
            )
            for stmt in node.body
        )
        if not has_slots:
            zone.flag(
                "SLOT001", node,
                f"hot-path class {node.name} must declare __slots__",
            )


#: ``heapq`` functions that mutate their first (heap) argument.
_HEAPQ_MUTATORS = {
    "heappush", "heappop", "heapify", "heapreplace", "heappushpop",
}

#: List methods that mutate the receiver in place.
_LIST_MUTATORS = {
    "append", "pop", "clear", "extend", "insert", "remove", "sort",
}


def _is_heap_attribute(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_heap"


def _check_sched(tree: ast.Module, zone: _Zone) -> None:
    """SCHED001: event-heap mutation that bypasses the tie-break hook.

    Every pop the engine performs routes through
    ``Simulator.tie_break`` when a model-checking policy is installed;
    code that pushes into or rewrites ``<sim>._heap`` directly creates
    or destroys events the policy never sees, so explored schedules
    and replayed certificates silently diverge from real runs.  Only
    ``sim/engine.py`` itself may touch the heap (the checker is not run
    over it); anything else must go through ``call_later``/``call_at``/
    ``process``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if _is_heap_attribute(target):
                    zone.flag(
                        "SCHED001", node,
                        "direct assignment to a simulator _heap bypasses "
                        "the tie-break hook; schedule via the engine API",
                    )
        elif isinstance(node, ast.AugAssign):
            if _is_heap_attribute(node.target):
                zone.flag(
                    "SCHED001", node,
                    "augmented assignment to a simulator _heap bypasses "
                    "the tie-break hook; schedule via the engine API",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "heapq"
                and func.attr in _HEAPQ_MUTATORS
            ):
                if any(_is_heap_attribute(arg) for arg in node.args):
                    zone.flag(
                        "SCHED001", node,
                        f"heapq.{func.attr} on a simulator _heap bypasses "
                        "the tie-break hook; schedule via the engine API",
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _LIST_MUTATORS
                and _is_heap_attribute(func.value)
            ):
                zone.flag(
                    "SCHED001", node,
                    f"_heap.{func.attr}(...) mutates the event heap behind "
                    "the tie-break hook; schedule via the engine API",
                )


def run_lint(
    paths: Iterable[Path],
    errno_source: Optional[Path] = None,
) -> List[LintFinding]:
    """Run every lint rule over ``paths`` (files or directories).

    ``errno_source`` points at the module defining the ``Errno`` enum;
    when omitted it is located relative to this file's package
    (``src/repro/oskernel/errors.py``).
    """
    if errno_source is None:
        errno_source = Path(__file__).resolve().parent.parent / "oskernel" / "errors.py"
    errno_members = _errno_members(errno_source)

    files: List[Path] = []
    for path in paths:
        files.extend(iter_py_files(Path(path)))

    findings: List[LintFinding] = []
    sources: Dict[str, List[str]] = {}
    for file in files:
        text = file.read_text(encoding="utf-8")
        sources[str(file)] = text.splitlines()
        tree = ast.parse(text, filename=str(file))
        zone = _Zone(str(file), findings)
        if _in_determinism_zone(file):
            _check_determinism(tree, zone)
        if errno_members is not None:
            _check_errno(tree, zone, errno_members)
        _check_slots(tree, zone)
        if not (file.name == "engine.py" and "sim" in file.parts):
            _check_sched(tree, zone)

    # TP001/TP002: registry cross-check over the same file set.
    problems, _, _ = check_fire_sites(files)
    for problem in problems:
        code = "TP002" if "arity" in problem.reason else "TP001"
        findings.append(
            LintFinding(code, problem.site.path, problem.site.lineno, problem.reason)
        )

    findings = [
        finding
        for finding in findings
        if not _allowed(sources.get(finding.path, []), finding.line, finding.code)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings
