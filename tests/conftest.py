import pytest

from lrcdist import decider


@pytest.fixture(autouse=True)
def cold_decide_memo():
    # decide answers each key once per process; a test that patches a rule's
    # construction or times a cold search must not be served an earlier
    # test's answer
    decider._resolve.cache_clear()
