"""The demos and the README's library quick start run as documented."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cyclemod

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # A copy under tmp_path, so that demos writing next to themselves
    # write there; the child imports the same cyclemod this process did.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(Path(cyclemod.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "<README quick start>", "exec"), {})
