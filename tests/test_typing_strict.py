"""Satellite: strict typing gate over the simulation substrate
(repro.sim), the protocol core (repro.core), the checking planes
that reason about them (repro.sanitizers, repro.faults) — the packages
the model checker composes, whose signatures certificates depend on —
and the command line (repro.cli) that drives them.

CI installs mypy and runs this for real; locally the test skips when
mypy is absent (the container image does not carry it).  The config
lives in pyproject.toml ([tool.mypy] + per-package overrides) so the
CLI invocation and this test check the identical profile.
"""

import pathlib
import subprocess
import sys

import pytest

mypy = pytest.importorskip("mypy")

REPO = pathlib.Path(__file__).resolve().parent.parent

GATED_PACKAGES = ("repro.sim", "repro.core", "repro.sanitizers", "repro.faults")
GATED_MODULES = ("repro.cli",)


def test_gated_packages_pass_strict_mypy():
    args = [sys.executable, "-m", "mypy"]
    for package in GATED_PACKAGES:
        args += ["-p", package]
    for module in GATED_MODULES:
        args += ["-m", module]
    result = subprocess.run(
        args,
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_pyproject_gates_the_same_packages():
    # The CI step and this test must check the profile pyproject
    # declares — a package added to one place but not the other would
    # silently run unstrict.
    text = (REPO / "pyproject.toml").read_text()
    for package in GATED_PACKAGES:
        assert f'"{package}.*"' in text, package
    for module in GATED_MODULES:
        assert f'"{module}"' in text, module
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    for module in GATED_MODULES:
        assert f"-m {module}" in ci, module
