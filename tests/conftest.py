import gc

import pytest

from actionness import signal


@pytest.fixture(params=[True, False], ids=["collector-enabled", "collector-disabled-by-caller"])
def collector(request):
    """Whether the collector is enabled when the test body runs; it is enabled again afterwards."""
    if not request.param:
        gc.disable()
    yield request.param
    gc.enable()


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Every test ends with the garbage collector enabled and the frozen heap unchanged."""
    frozen = gc.get_freeze_count()
    yield
    enabled = gc.isenabled()
    gc.enable()  # so that one failure here does not spread to the tests after it
    assert enabled, "the test left the garbage collector disabled"
    assert gc.get_freeze_count() == frozen, "the test changed the frozen heap"


@pytest.fixture
def planned_blocks(monkeypatch):
    """``(budget, block count)`` of every ``signal.size_blocks`` call from here on, which shows
    that a patched ``signal.SCRATCH_ELEMENTS`` reached the planner and how many blocks it cut."""
    calls = []
    plan = signal.size_blocks

    def spy(sizes, budget):
        blocks = plan(sizes, budget)
        calls.append((budget, len(blocks)))
        return blocks

    monkeypatch.setattr(signal, "size_blocks", spy)
    return calls
