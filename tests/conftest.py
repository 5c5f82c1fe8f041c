"""Setup shared by every test module: no exported threshold, and one way to
start a child interpreter on the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclemod
from cyclemod.cli import THRESHOLD_ENV_VAR

SRC = str(Path(cyclemod.__file__).resolve().parent.parent)


@pytest.fixture(autouse=True)
def clean_threshold_env(monkeypatch):
    # Removed from os.environ itself, so the children of run_child lose it too.
    monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)


def run_child(args, **kwargs):
    """``python *args`` in a child that imports the cyclemod this process imported."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, **kwargs)
