import numpy as np
import pytest

from lrcdist import decider, extremal, gf


@pytest.fixture(autouse=True)
def cold_decide_memo():
    # decide answers each key once per process, and the family search skips
    # the seeds of a shape whose seeds have all missed; a test that patches a
    # rule's construction or the seeds, or times a cold search, must not be
    # served an earlier test's answer or seed reach
    decider._resolve.cache_clear()
    extremal._seed_reach.clear()


@pytest.fixture
def layout_in_range(monkeypatch):
    """From here on, check that every index ``gf._layout`` gives a pivot step
    is in range, and count the steps.  ``gf._pivot`` takes with
    mode="wrap", which skips take's own bound check."""
    pivot, steps = gf._pivot, []

    def checked(a, widths, count, q, depth):
        columns, child_widths, x, child = gf._layout(widths, count)
        node_ends = np.repeat(np.cumsum(widths), count)
        assert widths.sum() == a.shape[1] and (1 <= count).all() and (count <= widths).all()
        assert (0 <= columns).all() and (columns < node_ends).all()
        assert (0 <= child).all() and (child < len(columns)).all()
        # each image comes from a later column of its own node
        assert (columns[child] < x).all() and (x < node_ends[child]).all()
        assert child_widths.sum() == len(x)
        steps.append(depth)
        return pivot(a, widths, count, q, depth)

    monkeypatch.setattr(gf, "_pivot", checked)
    return steps
