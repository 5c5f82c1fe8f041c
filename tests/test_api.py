"""The package's public names are what ``__all__`` says they are, and each
verb loads only the modules it calls."""

import importlib.util
import json
from pathlib import Path

import pytest
from conftest import run_child

import cyclemod
from cyclemod import cli


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


def test_each_lazy_name_is_its_module_object_on_its_first_lookup():
    code = (
        "import importlib, json, cyclemod\n"
        "assert not set(cyclemod.__all__) & vars(cyclemod).keys()\n"
        "print(json.dumps([n for n in cyclemod.__all__ if getattr(cyclemod, n) is not getattr("
        "importlib.import_module('cyclemod.' + cyclemod._MODULE_OF[n]), n)]))"
    )
    assert json.loads(run_child(["-c", code], check=True).stdout) == []


def _loaded_after(code: str) -> list[str]:
    """The ``cyclemod.*`` (``cyclemod.hybrid`` and ``cyclemod.svgplot`` among them),
    ``statistics``, ``dataclasses`` and ``inspect`` modules a fresh interpreter
    holds after ``code``."""
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


VERBS = [
    ["gen", "--p", "2", "--k-end", "3"],
    ["ecs", "--p", "2", "--k-end", "6"],
    ["plot", "--p", "2", "--k-end", "6"],
    ["decompose", "--p", "2", "--s", "0"],
    ["mask", "--p", "3", "--k", "5", "--r-hex", "13"],
]


@pytest.mark.parametrize("argv", VERBS)
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


# The one module each verb needs beyond cli's own imports, if any.
_CALLED = {"plot": "cyclemod.svgplot", "mask": "cyclemod.hybrid"}


@pytest.mark.parametrize("argv", VERBS, ids=[argv[0] for argv in VERBS])
def test_hybrid_and_svgplot_load_only_in_the_verbs_that_call_them(tmp_path, argv):
    loaded = _loaded_after(_RUN_MODULE.format(argv=[*argv, "--output", str(tmp_path / "out")]))
    called = _CALLED.get(argv[0])
    assert {"cyclemod.hybrid", "cyclemod.svgplot"} & set(loaded) == ({called} if called else set())


def _cli_targets():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted({attr for mod, attr, *_ in module.TARGETS if mod == "cli"})


@pytest.mark.parametrize("name", _cli_targets())
def test_cli_resolves_each_name_the_benchmark_traces(name):
    assert getattr(cli, name) is getattr(cyclemod, name)  # the defining module's own object


@pytest.mark.parametrize(
    "name", ["no_such_name", "unmask", "svgplot", "EntropyToken", "entropy_source"])
def test_cli_refuses_a_name_it_never_bound(name):
    with pytest.raises(AttributeError, match=name):
        getattr(cli, name)


def test_import_cli_loads_neither_hybrid_nor_svgplot_until_a_name_is_asked():
    loaded = _loaded_after("import cyclemod.cli as cli")
    assert "cyclemod.hybrid" not in loaded and "cyclemod.svgplot" not in loaded
    loaded = _loaded_after("import cyclemod.cli as cli\ncli.render_residue_svg")
    assert "cyclemod.svgplot" in loaded and "cyclemod.hybrid" not in loaded
