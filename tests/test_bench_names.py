"""The package names that the benchmark in ``perfbench/`` calls or patches exist.

``perfbench/tracing.py`` patches ``(module, attribute)`` pairs in place and
``perfbench/run.py`` calls ``lib.<module>.<name>``; a rename in ``src/``
would otherwise surface only when the benchmark runs.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_py_names():
    text = (PERFBENCH / "run.py").read_text(encoding="utf-8")
    return sorted(set(re.findall(r"\blib\.(\w+)\.(\w+)", text)))


@pytest.mark.parametrize("module,attr", [target[:2] for target in _tracing().TARGETS])
def test_traced_targets_are_bound(module, attr):
    assert hasattr(importlib.import_module(f"cyclemod.{module}"), attr)


def test_run_py_finds_its_names():
    assert len(_run_py_names()) >= 10


@pytest.mark.parametrize("module,name", _run_py_names())
def test_run_py_names_exist(module, name):
    assert hasattr(importlib.import_module(f"cyclemod.{module}"), name)
