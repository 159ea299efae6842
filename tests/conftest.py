import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Every test ends with the garbage collector enabled and the frozen heap unchanged."""
    frozen = gc.get_freeze_count()
    yield
    enabled = gc.isenabled()
    gc.enable()  # so that one failure here does not spread to the tests after it
    assert enabled, "the test left the garbage collector disabled"
    assert gc.get_freeze_count() == frozen, "the test changed the frozen heap"
