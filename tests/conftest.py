"""Shared set-up of the test modules under tests/."""

import sys

import pytest


@pytest.fixture(autouse=True, scope="module")
def _empty_library_caches_after_each_module():
    """Clear every module-level gtsreal cache when a test module ends.

    The caches one module fills would otherwise stay alive for the rest of
    the run: full realset caches hold some 10^5 objects, and every later
    full garbage collection walks them.  The benchmark's tests under
    perfbench/, which run after these, time traced runs that begin with a
    gc.collect()."""
    yield
    for name, module in list(sys.modules.items()):
        if name == "gtsreal" or name.startswith("gtsreal."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
