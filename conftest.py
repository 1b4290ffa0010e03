"""Shared set-up of the benchmark's tests under perfbench/."""

import functools
import gc

import pytest


@pytest.fixture(autouse=True)
def _empty_library_caches_before_each_benchmark_test(request):
    """Clear the lru caches of every copy of gtsreal alive in the process
    before a test under perfbench/.

    perfbench's import_gtsreal imports the library afresh, and a dropped
    copy lives on, its full caches with it, while anything holds one of its
    objects; tests/conftest.py reaches only the copies in sys.modules.  The
    traced runs start with a gc.collect() inside their timed span, which
    walks every live object, so the caches are found by walking the heap."""
    if request.path.parent.name == "perfbench":
        for obj in gc.get_objects():
            if isinstance(obj, functools._lru_cache_wrapper) and \
                    obj.__module__.startswith("gtsreal"):
                obj.cache_clear()
