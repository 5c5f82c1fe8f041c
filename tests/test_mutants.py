"""The mutation table in ``tools/mutants.py`` still matches the source.

Each mutant replaces one exact text; if an edit in ``src/`` moved or
duplicated that text, the mutant would silently stop applying.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _mutants()


@pytest.mark.parametrize("file,old,new,why", MUTANTS.MUTANTS, ids=[m[3] for m in MUTANTS.MUTANTS])
def test_each_mutant_text_occurs_exactly_once(file, old, new, why):
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
    assert new != old


def test_known_failures_name_existing_tests():
    for test_id in MUTANTS.KNOWN_FAILURES:
        path, name = test_id.split("::")
        assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8")
