"""Suite-wide settings: hypothesis draws its examples from a fixed seed,
with no example database, so the property tests run the same examples on
every run; and no test may leave a multiprocessing child (such as the
snapshot writer of `run(csv_path=...)`) alive."""

import multiprocessing

import pytest

try:
    from hypothesis import settings
except ImportError:          # tests/test_properties.py skips itself
    pass
else:
    settings.register_profile("perifront", derandomize=True, database=None,
                              max_examples=200, deadline=None)
    settings.load_profile("perifront")


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail the test if it leaves a multiprocessing child alive; the
    children are killed first, so one leak does not fail later tests."""
    yield
    leaked = multiprocessing.active_children()
    names = [f"{child.name} (pid {child.pid})" for child in leaked]
    for child in leaked:
        child.kill()
        child.join()
    if leaked:
        pytest.fail("test left multiprocessing children alive: "
                    + ", ".join(names), pytrace=False)
