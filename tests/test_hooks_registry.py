"""Every policy hook runs a program; a constant is a knob.

A hook is where a program decides per call.  Two static checks over
``src/repro`` keep it that way:

* every name declared with ``.hook("...")`` appears as a whole string
  literal in another module, where a program is attached
  (``attach_policy("name", ...)``) or tabled (a dict key, as in
  ``faults.plan.FAULT_TABLE``);
* only ``repro.probes.policy`` calls ``fixed(...)``: anything else in
  ``src/repro`` that pins a value writes the state its ``SYSFS_KNOBS``
  row names.
"""

import ast
from pathlib import Path

import pytest

from repro.probes.policy import fixed
from repro.sanitizers.astutil import iter_py_files, parse_file
from repro.system import System

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The modules allowed to call ``fixed``.
FIXED_CALLERS = {"repro.probes.policy"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


TREES = {module_name(path): parse_file(path) for path in iter_py_files(SRC)}


def _text(node: ast.AST):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _called(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def declared_hooks():
    """``{hook name: declaring module}`` from every ``.hook("...")``."""
    hooks = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "hook"
                and node.args
                and _text(node.args[0]) is not None
            ):
                hooks[_text(node.args[0])] = module
    return hooks


def program_sites(tree: ast.Module):
    """Literals naming a hook where a program goes: the first argument
    of ``attach_policy`` and the keys of a dict display."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "attach_policy":
            yield _text(node.args[0]) if node.args else None
        elif isinstance(node, ast.Dict):
            yield from (_text(key) for key in node.keys if key is not None)


HOOKS = declared_hooks()


def test_the_walk_finds_every_hook():
    # Guard against a vacuous pass.
    assert len(HOOKS) == 6, sorted(HOOKS)


@pytest.mark.parametrize("name", sorted(HOOKS))
def test_hook_runs_a_program(name):
    elsewhere = [
        module
        for module, tree in TREES.items()
        if module != HOOKS[name] and name in set(program_sites(tree))
    ]
    assert elsewhere, (
        f"hook {name!r} ({HOOKS[name]}) has no program outside the tests: "
        f"a value the same for every call is a knob, not a hook"
    )


def test_only_the_policy_module_pins_a_constant():
    callers = sorted(
        f"{module}:{node.lineno}"
        for module, tree in TREES.items()
        if module not in FIXED_CALLERS
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called(node) == "fixed"
    )
    assert callers == [], f"write the knob instead of pinning a hook: {callers}"


def test_a_built_system_registers_exactly_the_walked_hooks():
    assert set(System().probes.hooks) == set(HOOKS)


#: Hooks that no program outside the tests decided; what they pinned
#: is a knob (``coalescing_window_ns``) or gone with the QoS layers.
REMOVED_HOOKS = ("coalesce.window", "net.admit", "qos.deadline", "qos.invoke")


@pytest.mark.parametrize("name", REMOVED_HOOKS)
def test_a_removed_hook_is_refused_at_attach(name):
    probes = System().probes
    with pytest.raises(KeyError, match=f"unknown policy hook {name!r}"):
        probes.attach_policy(name, fixed(1))
