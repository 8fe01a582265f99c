"""Linear algebra over prime fields GF(q), batched where distance checks need it.

``batch_columns_independent`` is the one kernel of the exhaustive distance
search in ``codec.min_distance``.  It takes one column prefix and answers
whether it stays independent with every ``extra`` later columns.  It builds
those subsets one column at a time: the images of the later columns (their
residues modulo the span of the columns chosen so far) are updated by one
fraction-free pivot step per added column, with no division, and every
extension of a subset shares that step.  A column whose image reads zero
closes a dependent set, so no image is ever normalised or sorted.  Each
step runs for all subsets of one level at once, and a level that would
outgrow ``_ENTRY_BUDGET`` int64 entries is split into halves.

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
every node it keeps, the empty prefix's included: a zero column is a
circuit of one column that no node reaches.  The cut picks which children
a pivot step makes, not how: the steps, the work arrays and the halving
are the plain scan's, and a level is split on the size it has after the
cut, so the memory bound below holds as it is.  The cut runs where
``_cut_pays``, from the input alone: on a level of at least
``_CUT_ENTRIES`` entries whose expected candidates, with the sets taken at
random, number fewer than its w-sets.  Where w is near n, the plain scan
ends on few w-sets while the cut scan visits every smaller size, and the
cut costs ten times the plain scan on (20, 4, 4), whose four light rows
of five columns cut little.

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
the heaviest, (20, 7, 3) at d* = 12, leaves 4.67 MiB; at d* <= 8 the
heaviest is (20, 11, 5), at 1.65 MiB.  The cut scan of (20, 4, 1) at
d* = 14 leaves 0.41 MiB, against 2.72 MiB for its plain scan.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import comb

import numpy as np

from .errors import EnvelopeExceeded

_ENTRY_BUDGET = 1 << 17  # int64 entries in one array of the distance scan
_SMALL_LAYOUT = 32  # most nodes of a ``_pivot`` step whose index arrays are cached
_CUT_ENTRIES = 1 << 14  # least m * C(n, w) of a level whose scan repays the cut's cost per step
# slots of a thread's work arrays: the pivot columns and the products of one
# ``_pivot`` step, then the images of each depth from 1 on
_PIVOT_COLUMNS, _PRODUCTS, _IMAGES = 0, 1, 2
# Miller-Rabin bases, and for each the least composite that is a strong
# probable prime to it and every base before it
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin: exact for every q below the last entry
    of ``_PSEUDOPRIMES``, and EnvelopeExceeded above it.

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
    """C(i, j) for 0 <= i, j <= n, as floats: the sizes that the distance scan splits by."""
    table = np.array([[comb(i, j) for j in range(n + 1)] for i in range(n + 1)], dtype=float)
    table.setflags(write=False)  # shared by every caller
    return table


def _layout(widths: np.ndarray, count: np.ndarray, keep: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Where ``_pivot`` puts each child: the column of a that it pivots on,
    its width, and, for each of its images, the column of a that the image
    comes from and the child's index.  The children are those on each
    node's first ``count`` columns, or the ones ``keep`` marks among them."""
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    pivot = np.repeat(np.cumsum(widths) - widths, count) + j
    child_widths = np.repeat(widths, count) - 1 - j
    if keep is not None:
        pivot, child_widths = pivot[keep], child_widths[keep]
    ends = np.cumsum(child_widths)
    x = np.arange(ends[-1]) + np.repeat(pivot + 1 - ends + child_widths, child_widths)
    child = np.repeat(np.arange(len(pivot)), child_widths)
    return pivot, child_widths, x, child


@lru_cache(maxsize=64)
def _small_layout(widths: tuple[int, ...], count: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """``_layout`` of the few nodes near the top of a scan, where the same
    widths come back for every code of a length and the index arithmetic
    would cost more than the pivot step."""
    layout = _layout(np.array(widths), np.array(count))
    for array in layout:
        array.setflags(write=False)  # shared by every caller
    return layout


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


def _pivot(
    a: np.ndarray, widths: np.ndarray, count: np.ndarray, q: int, depth: int, keep: np.ndarray | None = None
):
    """One fraction-free pivot step of every node on each of its first
    ``count`` columns, or on those of them that ``keep`` marks, all nodes and
    columns at once.

    The nodes' images sit side by side in the columns of ``a``: node b owns
    the next ``widths[b]`` of them.  Pivoting node b on its column j makes a
    child whose images are those of the columns after j: with p the first
    nonzero entry of column j, in row i, every such column x becomes
    x * p - x_i * (column j) mod q, so no division is needed and row i reads
    zero.  A zero column j turns every image zero.  Returns the children's
    images side by side, in the order of their nodes and then of j, the
    pivot row under each image and each child's width.  The products stay
    below q**2, which fits in int64 for every q that ``codec.PrimeField``
    accepts.

    ``depth`` is the number of pivot steps that made ``a``.  The children's
    images are written into this thread's work array of depth + 1, which
    holds them until the next step at this depth, and the products into
    two work arrays that every depth shares.  ``take`` runs with
    mode="wrap", which writes straight into its ``out`` (under the default
    "raise" it fills a fresh buffer first); ``_layout``'s indices are in
    range, so the wrap never applies.
    """
    if keep is None and len(widths) <= _SMALL_LAYOUT:
        pivot, child_widths, x, child = _small_layout(tuple(widths.tolist()), tuple(count.tolist()))
    else:
        pivot, child_widths, x, child = _layout(widths, count, keep)
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
    return out, rows, child_widths


def _drop_pivot_rows(out: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out`` without the zero pivot row under each image: row 0 takes its
    place, which permutes the rows and so keeps every image's span."""
    out[rows, np.arange(out.shape[1])] = out[0]
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
    """The children the circuit cut keeps among each node's first
    widths - 1 columns (those with a later column).

    ``hits`` holds, per node, the masks of the light rows its columns meet
    once and at least once.  A node's last column is n - 1 - width, so the
    child on its column j adds column n - width + j.  The child is dropped
    when a light row that ends at or before that column meets it exactly
    once.  Returns the count per node, the mask of kept children, their
    hit masks and their widths.
    """
    holds, closed = tables
    n = len(holds)
    count = widths - 1
    starts = np.cumsum(count) - count
    column = np.arange(count.sum()) + np.repeat(n - widths - starts, count)
    hit = holds[column]
    once, seen = np.repeat(hits, count, axis=1)
    once = (once & ~hit) | (hit & ~seen)
    keep = (once & closed[column]) == 0
    return count, keep, np.stack((once[keep], (seen | hit)[keep])), n - 1 - column[keep]


def batch_columns_independent(h: np.ndarray, q: int, prefix: np.ndarray, extra: int) -> bool:
    """Whether the columns ``prefix`` of h together with every ``extra`` >= 1
    later columns are linearly independent over GF(q).

    ``prefix`` is a 1-D array of s ascending column indices into the (m, n)
    matrix h; the later columns are those after its last one (all of them
    when s = 0), at least ``extra`` of them.  The prefix is stacked with all
    later columns and eliminated by s pivot steps (``_pivot``); the later
    columns' images are then the entries below the pivots, up to an
    invertible row transform, and a prefix without a pivot zeroes them all.
    A zero image closes a dependent set, and a dependent set stays dependent
    whatever columns join it, so the answer is False iff an image reads zero
    here or in ``dependent``, which adds the later columns one pivot step at
    a time and splits its levels until each fits ``_ENTRY_BUDGET`` int64
    entries or holds one node.  From the empty prefix, where ``_cut_pays``
    on the supports of h's light rows, the scan visits circuit candidates
    only (the module docstring); the answer is the same.
    """
    s = len(prefix)
    m, n = h.shape
    if s + extra > m:  # s + extra columns in m rows are dependent
        return False

    def dependent(a, widths, extra, chunk, depth, cut):
        """Whether adding up to ``extra`` >= 2 more columns to some node
        closes a dependent set.

        A node is the prefix with some later columns added, and its images
        are those of the columns after its last one.  One ``_pivot`` makes
        every child that adds one of a node's first widths - extra + 1
        columns, so that extra - 1 columns are left after it; under the cut
        (``cut`` holds ``_cut`` of these nodes, else None), every child with
        a later column that ``_cut`` keeps.  A child with a zero image
        closes a dependent set; so does a node with a zero image, whose
        first child then reads zero there or, if the zero image is its
        first, everywhere.  Nodes whose next level, and without the cut
        whose subsets to come, would take more than ``chunk`` entries are
        split into halves, the later half first, since its nodes have the
        fewest later columns; each half takes its own slice of ``cut``.
        Each earlier half gets twice the chunk, up to ``_ENTRY_BUDGET``, and
        the first chunk is an eighth of it: a scan that meets a dependent
        set in the small subtrees it takes first stops early, and a scan
        that visits every subset splits a few times only.
        """
        if cut is None:
            count, keep = widths - extra + 1, None
            entries = _binomials(n)[widths][:, [2, extra]].sum()
        else:
            count, keep, child_hits, child_widths = cut
            if not len(child_widths):
                return False
            entries = child_widths.sum()
        if len(widths) > 1 and a.shape[0] * entries > chunk:
            half = len(widths) // 2
            columns = int(widths[:half].sum())
            earlier = later = None
            if cut is not None:
                children = int(count[:half].sum())
                kept = int(keep[:children].sum())
                earlier = count[:half], keep[:children], child_hits[:, :kept], child_widths[:kept]
                later = count[half:], keep[children:], child_hits[:, kept:], child_widths[kept:]
            return dependent(a[:, columns:], widths[half:], extra, chunk, depth, later) or dependent(
                a[:, :columns], widths[:half], extra, min(2 * chunk, _ENTRY_BUDGET), depth, earlier
            )
        out, rows, widths = _pivot(a, widths, count, q, depth, keep)
        if not out.any(axis=0).all():
            return True
        if extra == 2:
            return False
        cut = None if cut is None else _cut(widths, child_hits, tables)
        return dependent(_drop_pivot_rows(out, rows), widths, extra - 1, chunk, depth + 1, cut)

    first = int(prefix[-1]) + 1 if s else 0
    a = np.asarray(h, dtype=np.int64).take(np.concatenate((prefix, np.arange(first, n))), axis=1) % q
    widths = np.array([a.shape[1]])
    for depth in range(s):
        out, rows, widths = _pivot(a, widths, np.ones_like(widths), q, depth)
        a = _drop_pivot_rows(out, rows)
    if extra == 1:
        return not (a == 0).all(axis=0).any()
    tables = cut = None
    if not s:
        nonzero = a != 0
        light = nonzero[~nonzero.all(axis=1)]
        if _cut_pays(light, m, extra):
            # a zero column is a circuit of one column, which no node of the
            # cut reaches: the empty prefix's own images are its only test
            if not nonzero.any(axis=0).all():
                return False
            tables = _cut_tables(light)
            cut = _cut(widths, np.zeros((2, 1), dtype=np.uint64), tables)
    return not dependent(a, widths, extra, _ENTRY_BUDGET // 8, s, cut)
