"""Every name a module lists in ``__all__`` exists, so a star import works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["chns.ops", "chns.lifting"])
def test_star_import_resolves_all(module):
    namespace = {}
    exec(f"from {module} import *", namespace)      # AttributeError on a stale entry
    assert set(importlib.import_module(module).__all__) <= set(namespace)
