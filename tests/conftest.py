import pytest

from lrcdist import decider, extremal


@pytest.fixture(autouse=True)
def cold_decide_memo():
    # decide answers each key once per process, and the family search skips
    # the seeds of a shape whose seeds have all missed; a test that patches a
    # rule's construction or the seeds, or times a cold search, must not be
    # served an earlier test's answer or seed reach
    decider._resolve.cache_clear()
    extremal._seed_reach.clear()
