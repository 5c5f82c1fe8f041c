"""The demos and the README's library quick start run as documented."""

import re
import shutil
from pathlib import Path

import pytest
from conftest import run_child

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # A copy under tmp_path, so that demos writing next to themselves write there.
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = run_child([str(script)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "<README quick start>", "exec"), {})
