"""Linear algebra over prime fields GF(q), batched where distance checks need it.

``batch_columns_independent`` is the one kernel of the exhaustive distance
search in ``codec.min_distance``.  It takes one column prefix and answers
whether it stays independent with every ``extra`` later columns.  It builds
those subsets one column at a time: the images of the later columns (their
residues modulo the span of the columns chosen so far) are updated by one
fraction-free pivot step per added column, with no division, which also
drops the row it zeroes, and every extension of a subset shares that step.
A column whose image reads zero closes a dependent set, so no image is
ever normalised or sorted.  The prefix's own images take that test once,
before the first step, and it is the whole of level 1.  Each step runs
for all subsets of one level at once.  A level's children are placed
before the level runs, and a level whose children would outgrow
``_ENTRY_BUDGET`` int64 entries is split into halves, each taking the
children of its own nodes.  ``_children`` alone says where a step's
children sit: the column each pivots on and how many later columns it
keeps.

From the empty prefix the kernel can also visit circuit candidates only.
A circuit, a minimal dependent column set, is the support of a codeword c,
and h . c = 0 for every row h of the matrix, so a circuit never meets a
row's support exactly once: the dual-codeword view of locality of Gopalan,
Huang, Simitci and Yekhanin.  A candidate is a column set that meets the
support of every light row (a row that is zero on some column) 0 times or
at least twice.  Some w columns are dependent iff some circuit has at most
w columns, and every circuit is a candidate, so the scan may skip the rest.
It still adds columns in ascending order: a prefix P is dropped once a
light row meets P exactly once and has no column after P's last, since no
column added later can meet that row again.  No prefix of a circuit C is
ever dropped, because each meets every such row as often as C does.
Candidates are not closed under supersets (a w-set that holds a circuit
need not be one), so unlike the plain scan, which meets every circuit
inside some w-set, the cut scan must reach each circuit C at its own node
C minus its last column.  It therefore keeps every surviving prefix that
has a later column, of every size up to w - 1, and tests every image of
every node it keeps.  A zero column is a circuit of one column that no
node reaches, and the empty prefix's own test finds it.  The cut filters
the ``_children`` of a pivot step and places none itself, and that is all
that tells the two scans apart: the steps, the work arrays and the split
rule are the same, and a level is split on the size of its children after
the cut, so the memory bound below holds for both.
The cut runs where ``_cut_pays``, from the input alone: on a level of at
least ``_CUT_ENTRIES`` entries whose expected candidates, with the sets
taken at random, number fewer than its w-sets.  Where w is near n, the
plain scan ends on few w-sets while the cut scan visits every smaller
size, and the cut costs ten times the plain scan on (20, 4, 4), whose
four light rows of five columns cut little.

The scan computes in work arrays that outlive a call: one for the images
of each depth (the number of pivot steps that made them) and two for the
pivot columns and products of a step.  Each thread has its own, in a
``threading.local``, so concurrent scans share nothing.  They are made at
a thread's first scan, replaced by a larger array when a step needs more,
and kept, so a heavy scan does not free and fault in fresh pages at every
step.  Each holds at most ``_ENTRY_BUDGET`` entries (a level of one node,
which cannot be split, may need up to m * C(n, 2)), so a thread whose
deepest scan reached level w keeps w + 1 of them: at most (w + 1) x
``_ENTRY_BUDGET`` x 8 bytes, 9 MiB for w = 8 at the default budget.  Of
the codes ``codec.construct_optimal_lrc`` builds (n <= 20, d* up to 20),
with seed 0, the heaviest, (20, 8, 4) at d* = 12, leaves 6.24 MiB; at
d* <= 8 the heaviest is (20, 12, 7), at 2.15 MiB.  The cut scan of
(20, 4, 1) at d* = 14 leaves 0.41 MiB, against 6.69 MiB for its plain
scan.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import comb

import numpy as np

from .errors import EnvelopeExceeded

_ENTRY_BUDGET = 1 << 17  # int64 entries in one array of the distance scan
_CUT_ENTRIES = 1 << 14  # least m * C(n, w) of a level whose scan repays the cut's cost per step
# slots of a thread's work arrays: the pivot columns and the products of one
# ``_pivot`` step, then the images of each depth from 1 on
_PIVOT_COLUMNS, _PRODUCTS, _IMAGES = 0, 1, 2
# Miller-Rabin bases, and for each the least composite that is a strong
# probable prime to it and every base before it; the last lies above
# ``codec.FIELD_ORDER_ENVELOPE``, the largest field order the package accepts
_WITNESSES = (2, 3, 5, 7)
_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751)


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin: exact for every q below the last entry
    of ``_PSEUDOPRIMES``, and EnvelopeExceeded from it on.

    Trial division by the bases settles every q that shares a factor with
    them.  Past them, q must be a strong probable prime to each base in
    turn; once it has passed the first i and lies below the least
    composite that passes them all, it is prime.
    """
    if q >= _PSEUDOPRIMES[-1]:
        raise EnvelopeExceeded(f"primality test limited to q < {_PSEUDOPRIMES[-1]}")
    if q < 2:
        return False
    for a in _WITNESSES:
        if q % a == 0:
            return q == a
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2**s with d odd
    d = (q - 1) >> s
    for a, pseudoprime in zip(_WITNESSES, _PSEUDOPRIMES):
        x = pow(a, d, q)
        if x != 1 and x != q - 1:
            for _ in range(s - 1):
                x = x * x % q
                if x == q - 1:
                    break
            else:
                return False
        if q < pseudoprime:  # true by the last base at the latest
            break
    return True


def next_prime_above(x: int) -> int:
    q = max(2, x + 1)
    while not is_prime(q):
        q += 1
    return q


def rref_mod(mat: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod q; returns (R, pivot column indices).

    Pivot ties break toward the lowest column index, which keeps systematic
    encodings reproducible.
    """
    a = np.array(mat, dtype=np.int64) % q
    rows, cols = a.shape
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if len(nz) == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), -1, q)
        a[rank] = (a[rank] * inv) % q
        factors = a[:, col].copy()
        factors[rank] = 0
        a = (a - np.outer(factors, a[rank]) % q) % q
        pivots.append(col)
        rank += 1
    return a, pivots


def rank_mod(mat: np.ndarray, q: int) -> int:
    return len(rref_mod(mat, q)[1])


@lru_cache(maxsize=8)
def _binomials(n: int) -> np.ndarray:
    """C(i, j) for 0 <= i, j <= n, as floats: the set counts that ``_cut_pays`` weighs."""
    table = np.array([[comb(i, j) for j in range(n + 1)] for i in range(n + 1)], dtype=float)
    table.setflags(write=False)  # shared by every caller
    return table


def _children(widths: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The children of a pivot step on each node's first ``count`` columns,
    in the order of their nodes and then of j: the column of a that each
    pivots on, ascending, and its width.  The nodes' images sit side by
    side in a, node b owning the next ``widths[b]`` columns, so the child on
    node b's column j pivots on b's start + j and keeps the widths[b] - 1 - j
    columns after it."""
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return np.repeat(np.cumsum(widths) - widths, count) + j, np.repeat(widths, count) - 1 - j


class _WorkArrays(threading.local):
    """The distance scan's int64 work arrays of one thread, by slot; each
    thread starts with none."""

    def __init__(self):
        self.arrays: list[np.ndarray] = []


_work = _WorkArrays()


def _work_array(slot: int, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) view of this thread's work array ``slot``: made on
    first use, replaced by a larger one when too small, and kept."""
    size, arrays = rows * cols, _work.arrays
    if slot >= len(arrays):
        arrays.extend(np.empty(0, dtype=np.int64) for _ in range(slot + 1 - len(arrays)))
    if arrays[slot].size < size:
        arrays[slot] = np.empty(size, dtype=np.int64)
    return arrays[slot][:size].reshape(rows, cols)


def _pivot(a: np.ndarray, pivot: np.ndarray, child_widths: np.ndarray, q: int, depth: int) -> np.ndarray:
    """One fraction-free pivot step that makes the given children, all at
    once.

    Each child, from ``_children`` and perhaps filtered by ``_cut``, pivots
    on column ``pivot`` of ``a`` and keeps as its images the
    ``child_widths`` columns after it, all in its own node.  With p the
    first nonzero entry of the pivot column, in row i, every such column x
    becomes x * p - x_i * (pivot column) mod q, so no division is needed and
    row i reads zero.  A zero pivot column turns every image zero.  Returns
    the children's images side by side, in the order given.  The images
    come without their zero pivot row: row 0 takes its place, which
    permutes the rows and so keeps every image's span, and an image is zero
    exactly when it was before.  The products stay below q**2, which fits
    in int64 for every q that ``codec.PrimeField`` accepts.

    ``depth`` is the number of pivot steps that made ``a``.  The children's
    images are written into this thread's work array of depth + 1, which
    holds them until the next step at this depth, and the products into
    two work arrays that every depth shares.  ``take`` runs with
    mode="wrap", which writes straight into its ``out`` (under the default
    "raise" it fills a fresh buffer first); the children's columns are in
    range, so the wrap never applies.
    """
    ends = np.cumsum(child_widths)
    x = np.arange(ends[-1]) + np.repeat(pivot + 1 - ends + child_widths, child_widths)
    child = np.repeat(np.arange(len(pivot)), child_widths)
    m = a.shape[0]
    # take is several times faster than fancy indexing along axis 1
    col = a.take(pivot, axis=1, out=_work_array(_PIVOT_COLUMNS, m, len(pivot)), mode="wrap")
    rows = (col != 0).argmax(axis=0)
    lead = col[rows, np.arange(len(pivot))]
    rows = rows[child]
    out = a.take(x, axis=1, out=_work_array(_IMAGES + depth, m, len(x)), mode="wrap")
    out *= lead[child]
    subtrahend = col.take(child, axis=1, out=_work_array(_PRODUCTS, m, len(x)), mode="wrap")
    subtrahend *= a[rows, x]
    out -= subtrahend
    # NumPy divides by a scalar through a multiply and a shift, which is
    # several times faster than % on the negative entries
    quotient = np.floor_divide(out, q, out=subtrahend)
    quotient *= q
    out -= quotient
    out[rows, np.arange(len(x))] = out[0]
    return out[1:]


def _cut_tables(light: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column, as uint64 bit masks over the first 64 light rows: the rows
    whose support holds the column, and the rows whose support ends at or
    before it.  The cut is sound on any subset of the rows."""
    light = light[:64]
    n = light.shape[1]
    bits = np.left_shift(np.uint64(1), np.arange(len(light), dtype=np.uint64))[:, None]
    holds = np.bitwise_or.reduce(np.where(light, bits, np.uint64(0)), axis=0)
    last = n - 1 - light[:, ::-1].argmax(axis=1)
    closed = np.bitwise_or.reduce(np.where(np.arange(n) >= last[:, None], bits, np.uint64(0)), axis=0)
    return holds, closed


def _cut_pays(light: np.ndarray, m: int, w: int) -> bool:
    """Whether the circuit cut is expected to pay on level w of an m-row
    matrix with these light-row supports.

    It pays when the level is large, m * C(n, w) >= ``_CUT_ENTRIES``, and
    fewer column sets of sizes 2..w than the C(n, w) that the plain scan
    ends on are expected to be candidates.  That expectation takes the sets
    at random and the rows apart: an s-set meets a row of l columns exactly
    once with probability l * C(n - l, s - 1) / C(n, s).  Without the size
    floor, the expectation alone also picks small levels, where ``_cut``'s
    fixed cost per step outweighs what it saves: on the levels that the
    bench's ``codes`` workload scans, the cut ran 2.1 to 3.0 times slower
    than the plain scan below 2^12 entries, 1.3 to 1.6 times slower from
    2^12 to 2^14, and 0.24 to 0.84 times as long from 2^14 up.
    """
    n = light.shape[1]
    if m * comb(n, w) < _CUT_ENTRIES:
        return False
    table = _binomials(n)
    sizes = light.sum(axis=1)[:, None]
    s = np.arange(2, w + 1)
    once = sizes * table[n - sizes, s - 1] / table[n, s]
    return bool((table[n, s] * (1 - once).prod(axis=0)).sum() < table[n, w])


def _cut(widths: np.ndarray, hits: np.ndarray, tables: tuple[np.ndarray, np.ndarray]):
    """The children the circuit cut keeps among ``_children`` on each
    node's first widths - 1 columns (those with a later column).

    ``hits`` holds, per node, the masks of the light rows its columns meet
    once and at least once.  A node's images are those of every column of
    h after its last, so a child of width w adds column n - 1 - w.  The
    child is dropped when a light row that ends at or before that column
    meets it exactly once.  Returns the kept children's pivots, widths and
    hit masks.
    """
    holds, closed = tables
    pivot, child_widths = _children(widths, widths - 1)
    column = len(holds) - 1 - child_widths
    hit = holds[column]
    once, seen = np.repeat(hits, widths - 1, axis=1)
    once = (once & ~hit) | (hit & ~seen)
    keep = (once & closed[column]) == 0
    return pivot[keep], child_widths[keep], np.stack((once[keep], (seen | hit)[keep]))


def batch_columns_independent(h: np.ndarray, q: int, prefix: np.ndarray, extra: int) -> bool:
    """Whether the columns ``prefix`` of h together with every ``extra`` >= 1
    later columns are linearly independent over GF(q).

    ``prefix`` is a 1-D array of s ascending column indices into the (m, n)
    matrix h; the later columns are those after its last one (all of them
    when s = 0), at least ``extra`` of them.  The prefix is stacked with all
    later columns and eliminated by s pivot steps (``_pivot``); the later
    columns' images are then their m - s rows left, up to an invertible row
    transform, and a prefix without a pivot zeroes them all.  A zero image
    closes a dependent set, and a dependent set stays dependent whatever
    columns join it, so the answer is False iff an image reads zero here,
    in the one test that settles ``extra`` = 1 and a zero column under the
    cut, or in ``dependent``, which adds the later columns one pivot step at
    a time and splits its levels until each fits ``_ENTRY_BUDGET`` int64
    entries or holds one node.  From the empty prefix, where ``_cut_pays``
    on the supports of h's light rows, the scan visits circuit candidates
    only (the module docstring); the answer is the same.
    """
    s = len(prefix)
    m, n = h.shape
    if s + extra > m:  # s + extra columns in m rows are dependent
        return False

    def dependent(a, widths, extra, chunk, depth, children):
        """Whether adding up to ``extra`` >= 2 more columns to some node
        closes a dependent set.

        A node is the prefix with some later columns added, and its images
        are those of the columns after its last one.  ``children`` are the
        nodes' children, made before this level is split: the ``_children``
        on a node's first widths - extra + 1 columns, so that extra - 1
        columns are left after each, or under the cut the children that
        ``_cut`` keeps, with their hit masks.  One ``_pivot`` makes them
        all, and a child with a zero image closes a dependent set; the
        nodes' own images were tested when they were made.  Nodes whose
        children would take more than ``chunk`` entries are split into
        halves, the later half first, since its nodes have the fewest later
        columns.  Each half takes the children whose pivots lie in its
        columns, the later half's shifted to its own first column.  Each
        earlier half gets twice the chunk, up to ``_ENTRY_BUDGET``, and the
        first chunk is an eighth of it: a scan that meets a dependent set in
        the small subtrees it takes first stops early, and a scan that
        visits every subset splits a few times only.
        """
        pivot, child_widths = children[:2]
        if not len(pivot):
            return False
        if len(widths) > 1 and a.shape[0] * child_widths.sum() > chunk:
            half = len(widths) // 2
            columns = int(widths[:half].sum())
            i = np.searchsorted(pivot, columns)
            # the hit masks hold a child per entry of their last axis
            earlier = tuple(c[..., :i] for c in children)
            later = (pivot[i:] - columns, *(c[..., i:] for c in children[1:]))
            return dependent(a[:, columns:], widths[half:], extra, chunk, depth, later) or dependent(
                a[:, :columns], widths[:half], extra, min(2 * chunk, _ENTRY_BUDGET), depth, earlier
            )
        out = _pivot(a, pivot, child_widths, q, depth)
        if not out.any(axis=0).all():
            return True
        if extra == 2:
            return False
        if tables is None:
            children = _children(child_widths, child_widths - extra + 2)
        else:
            children = _cut(child_widths, children[2], tables)
        return dependent(out, child_widths, extra - 1, chunk, depth + 1, children)

    first = int(prefix[-1]) + 1 if s else 0
    a = np.asarray(h, dtype=np.int64).take(np.concatenate((prefix, np.arange(first, n))), axis=1) % q
    widths = np.array([a.shape[1]])
    for depth in range(s):
        pivot, widths = _children(widths, np.ones_like(widths))
        a = _pivot(a, pivot, widths, q, depth)
    nonzero = a != 0
    if not nonzero.any(axis=0).all():
        return False
    if extra == 1:
        return True
    tables, children = None, _children(widths, widths - extra + 1)
    if not s:
        light = nonzero[~nonzero.all(axis=1)]
        if _cut_pays(light, m, extra):
            tables = _cut_tables(light)
            children = _cut(widths, np.zeros((2, 1), dtype=np.uint64), tables)
    return not dependent(a, widths, extra, _ENTRY_BUDGET // 8, s, children)
