"""Setup shared by every test module: no exported threshold, a time limit on
each test, and one way to start a child interpreter on the package under test."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import cyclemod
from cyclemod.cli import THRESHOLD_ENV_VAR

SRC = str(Path(cyclemod.__file__).resolve().parent.parent)
# The slowest test takes about 2.3 s, so a test past these limits has a loop
# that does not end: it fails, naming itself, instead of hanging the suite.
TEST_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 30


@pytest.fixture(autouse=True)
def clean_threshold_env(monkeypatch):
    # Removed from os.environ itself, so the children of run_child lose it too.
    monkeypatch.delenv(THRESHOLD_ENV_VAR, raising=False)


class TestTimeout(BaseException):
    """Not an ``Exception``, so neither the code under test nor hypothesis catches it."""


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "setitimer"):  # no SIGALRM on this platform
        yield
        return

    def expire(signum, frame):
        raise TestTimeout(f"{request.node.nodeid} ran past {TEST_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_child(args, timeout=CHILD_TIMEOUT_S, **kwargs):
    """``python *args`` in a child that imports the cyclemod this process imported."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=timeout, **kwargs)
