"""The package's public names are what ``__all__`` says they are."""

import cyclemod


def test_all_names_are_bound_once_and_star_import_works():
    missing = [name for name in cyclemod.__all__ if not hasattr(cyclemod, name)]
    assert missing == []
    assert len(cyclemod.__all__) == len(set(cyclemod.__all__))
    namespace = {}
    exec("from cyclemod import *", namespace)
    assert set(cyclemod.__all__) <= namespace.keys()
