"""The package metadata in ``pyproject.toml`` points at real code."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project() -> dict:
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def test_console_script_resolves_to_the_cli():
    data = _project()
    target = data["project"]["scripts"]["repro-net"]
    assert target == "repro.cli:main"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_version_comes_from_the_package():
    data = _project()
    assert "version" in data["project"]["dynamic"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}
    assert repro.__version__


def test_runtime_dependencies_are_declared():
    names = {
        dep.split(">")[0].split("=")[0].split("<")[0].strip()
        for dep in _project()["project"]["dependencies"]
    }
    assert {"networkx", "numpy", "scipy"} <= names
