"""The package's public names are what ``__all__`` says they are."""

import json

import pytest
from conftest import run_child

import cyclemod


def test_all_names_are_bound_once_and_star_import_works():
    missing = [name for name in cyclemod.__all__ if not hasattr(cyclemod, name)]
    assert missing == []
    assert len(cyclemod.__all__) == len(set(cyclemod.__all__))
    namespace = {}
    exec("from cyclemod import *", namespace)
    assert set(cyclemod.__all__) <= namespace.keys()
    with pytest.raises(AttributeError):
        cyclemod.no_such_name
    assert set(cyclemod.__all__) <= set(dir(cyclemod))


def _loaded_after(code: str) -> list[str]:
    """The ``cyclemod.*``, ``statistics``, ``dataclasses`` and ``inspect`` modules a
    fresh interpreter holds after ``code``."""
    report = (
        "import json, sys; print(json.dumps(sorted(n for n in sys.modules"
        " if n.startswith('cyclemod.') or n in ('statistics', 'dataclasses', 'inspect'))))"
    )
    proc = run_child(["-c", f"{code}\n{report}"], check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _loaded_after("import cyclemod") == []


# Each verb as `python -m cyclemod` runs it, writing to a file so stdout
# carries only the module report.
_RUN_MODULE = """\
import runpy, sys
sys.argv = ["cyclemod", *{argv!r}]
try:
    runpy.run_module("cyclemod", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code"""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--p", "2", "--k-end", "3"],
        ["ecs", "--p", "2", "--k-end", "6"],
        ["plot", "--p", "2", "--k-end", "6"],
        ["decompose", "--p", "2", "--s", "0"],
        ["mask", "--p", "3", "--k", "5", "--r-hex", "13"],
    ],
)
def test_verbs_other_than_bench_load_no_bench(tmp_path, argv):
    argv = [*argv, "--output", str(tmp_path / "out")]
    loaded = _loaded_after(_RUN_MODULE.format(argv=argv))
    assert "cyclemod.cli" in loaded
    assert "cyclemod.bench" not in loaded and "statistics" not in loaded
    # The records are slotted classes, so no verb pays for these imports.
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_bench_loads_bench(tmp_path):
    argv = ["bench", "--p", "2", "--reps", "30", "--output", str(tmp_path / "out")]
    loaded = _loaded_after(_RUN_MODULE.format(argv=argv))
    assert "cyclemod.bench" in loaded and "statistics" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
