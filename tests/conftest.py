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
    """From here on, check that ``gf._children`` places every child inside
    its own node and that every index ``gf._pivot`` takes, the circuit
    cut's steps included, is in range, and count the steps.  ``gf._pivot``
    takes with mode="wrap", which skips take's own bound check."""
    children, pivot, steps = gf._children, gf._pivot, []

    def placed(widths, count):
        columns, child_widths = children(widths, count)
        node_ends = np.repeat(np.cumsum(widths), count)
        # every node makes a child, except under the circuit cut, which
        # takes each node's columns but its last
        assert (count <= widths).all() and ((1 <= count) | (count == widths - 1)).all()
        # each child pivots on a column of its own node and keeps every
        # later column of it as its images
        assert (node_ends - np.repeat(widths, count) <= columns).all() and (columns < node_ends).all()
        assert (columns + 1 + child_widths == node_ends).all()
        return columns, child_widths

    def checked(a, columns, child_widths, q, depth):
        # the image indices, columns + 1 to columns + child_widths, are
        # columns of a, and each image's child is one of the pivots
        assert len(columns) == len(child_widths) >= 1 and (child_widths >= 1).all()
        assert (0 <= columns).all() and (columns + child_widths < a.shape[1]).all()
        # ascending, as the split of the circuit cut's children needs
        assert (np.diff(columns) > 0).all()
        out = pivot(a, columns, child_widths, q, depth)
        assert out.shape == (a.shape[0] - 1, child_widths.sum())
        steps.append(depth)
        return out

    monkeypatch.setattr(gf, "_children", placed)
    monkeypatch.setattr(gf, "_pivot", checked)
    return steps
