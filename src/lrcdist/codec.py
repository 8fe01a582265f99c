"""Finite-field back end: randomized parity-check matrices and exact verification.

A full Tanner graph fixes which entries of the (n-k) x n parity-check
matrix may be nonzero.  Filling those entries uniformly at random from a
large enough prime field yields, with overwhelming probability, a code
whose minimum distance matches the decided optimum; the default modulus
is the smallest prime above (d* - 1) * C(n, d* - 1), the point where the
union-bound failure estimate drops below one (observed first-attempt
success is the norm).  Verification is never probabilistic: ``verify_code``
checks rank, locality and minimum distance exhaustively, and it is the one
verifier behind both ``construct_optimal_lrc`` and ``lrcdist verify``.

A ``LinearCode`` is checked once, when it is made: H must be an integer
array of shape (n - k, n) with entries in [0, q), else BadArgs.  The code
keeps H as a read-only int64 array over an immutable buffer, and its
fields cannot be assigned, so a ``verified`` flag always describes the H
it sits on; ``dataclasses.replace`` relabels a code as a new one, checked
again.  What depends on H alone is the code's plan, made at its first read
and kept on the code: the rank from one row reduction, the pivot and free
columns, the parity block that solves the pivot symbols, for each
coordinate the light row that repairs it, and each row's support as an
exact Python int.
``verify_locality`` reads it first, ``min_distance`` takes the rank and
the supports from it, and the encodes and repairs that follow take the
rest, so a code is row reduced once however many codes a caller
alternates between.  Each call checks its own input, and ``encode``
still checks H c = 0 on every word.

The distance is the smallest w such that some w columns of H are dependent.
``min_distance`` reads no claim: H's zero pattern picks the one level it
checks.  eta rows that are nonzero on fewer than eta + k columns leave at
least m - eta + 1 columns inside the other m - eta rows, and those are
dependent over any field (the counting behind the Singleton-like bound of
Gopalan, Huang, Simitci and Yekhanin).  ``tanner.failing_checks``, the
depth-first walk behind ``tanner.tanner_min_distance``, finds the largest
such row set among the non-dense rows, so some b = m + 1 - eta columns are
dependent.  When no b - 1 columns are dependent, no fewer are either,
because independence is hereditary, so the distance is b: on every code
``construct_optimal_lrc`` builds, b is d* and level d* - 1 is the only
level scanned.  Otherwise the scan goes up from w = 1 and stops at the
first dependent level, or at b - 1.  The result is the exact distance for
every H and q; ``claimed_distance`` is only a label that ``verify``
compares the result against.

A scanned level is one call of ``gf.batch_columns_independent`` that
builds the w-subsets one column at a time from the empty prefix and
returns one flag for them all: level 1 is the zero-column test, and from
w = 2 on adding a column is one fraction-free pivot step, shared by every
subset that extends the columns chosen so far, and a column whose image
modulo their span reads zero closes a dependent set.  The kernel splits a
level into halves whenever it would hold more than ``gf._ENTRY_BUDGET``
int64 entries, so memory stays flat however many subsets a level has, and
it stops at the first dependent set.  On a large level where the rows of
H that have a zero, the rows the zero pattern's walk reads, promise to
cut enough, the kernel visits circuit candidates only: column sets that meet each such row 0 times or at
least twice, since h . c = 0 for every row h and codeword c.  The level's
scan of (20, 7, 1), whose 10 local rows have a zero, fell from
about 12 ms to 0.7 ms, and of (20, 4, 1) at d* = 14 from about 33 ms to
1.5 ms.  The kernel computes in work arrays that it keeps between pivot
steps and calls, one set per thread: one per depth of the scan and two for
a step's products, each within the budget, so a thread whose deepest scan
reached level w holds at most (w + 1) x ``gf._ENTRY_BUDGET`` x 8 bytes
(9 MiB at level 8); the heaviest code ``construct_optimal_lrc`` builds,
(20, 7, 3) at d* = 12, leaves 4.67 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from math import comb, isqrt
from typing import NamedTuple

import numpy as np

from . import gf
from .decider import decide
from .errors import (
    BadArgs,
    DegenerateCode,
    EnvelopeExceeded,
    NoLocalCover,
    NotAchievable,
    RetriesExhausted,
    SelfCheckFailed,
)
from .params import CodeParams, derive_params, is_int
from .tanner import FullTannerGraph, failing_checks, graph_to_pruned, p2f

DISTANCE_LENGTH_ENVELOPE = 20
FIELD_ORDER_ENVELOPE = isqrt(2**63 - 1) + 1  # largest q with (q - 1)**2 inside int64


@dataclass(frozen=True)
class PrimeField:
    q: int

    def __post_init__(self):
        # the range test precedes primality, which refuses a q past its exact range
        if not is_int(self.q) or not 2 <= self.q <= FIELD_ORDER_ENVELOPE or not gf.is_prime(self.q):
            raise BadArgs(f"field order must be a prime <= {FIELD_ORDER_ENVELOPE} (int64), got {self.q}")


class _Plan(NamedTuple):
    """What the rank check, ``encode`` and ``repair_symbol`` read of one H."""

    rank: int
    pivots: np.ndarray  # pivot columns of the row-reduced H, ascending
    frees: np.ndarray  # the other columns, which hold a message's symbols
    parity: np.ndarray  # (-R[:, frees]) % q: pivot symbol i is row i times the message
    # per coordinate j, from the lowest-index row of weight <= r + 1 that is
    # nonzero on j: its other columns, their entries and the inverse of its
    # entry on j; None if no such row exists
    covers: tuple[tuple[tuple[int, ...], tuple[int, ...], int] | None, ...]
    masks: tuple[int, ...]  # each row's support, bit j for column j (``_row_masks``)


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A code over ``field`` given by its (n - k) x n parity-check matrix H.

    H is checked when the code is made and stored as a read-only int64
    array, and no field can be assigned, so a code never changes after
    the check; ``dataclasses.replace`` relabels one as a new code.
    ``claimed_distance``, ``verified`` and ``attempts`` are labels, which
    ``verify_code`` never reads: ``construct_optimal_lrc`` returns a code
    with ``verified=True`` only once ``verify_code`` has accepted that
    code's own H.  ``plan`` is computed at its first read and kept.
    """

    params: CodeParams
    field: PrimeField
    H: np.ndarray
    claimed_distance: int | None = None
    verified: bool = False
    attempts: int = 0

    def __post_init__(self):
        h, p = self.H, self.params
        if not isinstance(h, np.ndarray) or h.dtype.kind not in "iu":
            got = h.dtype if isinstance(h, np.ndarray) else type(h).__name__
            raise BadArgs(f"H must be an integer array, got {got}")
        if h.shape != (p.n - p.k, p.n):
            raise BadArgs(f"H must be {(p.n - p.k, p.n)}, got {h.shape}")
        # an unsigned entry past int64 turns negative here, and fails the range check
        h = h.astype(np.int64, copy=False)
        # an entry in [0, q) is nonzero exactly when it is nonzero mod q
        if ((h < 0) | (h >= self.field.q)).any():
            raise BadArgs("matrix entries must lie in [0, q)")
        # over immutable bytes, so not even setflags(write=True) makes it writable
        object.__setattr__(self, "H", np.frombuffer(h.tobytes(), dtype=np.int64).reshape(h.shape))

    def __reduce__(self):
        # an unpickled or copied code is made, and checked, like any other
        return LinearCode, tuple(getattr(self, f.name) for f in fields(self))

    @cached_property
    def plan(self) -> _Plan:
        """One ``gf.rref_mod`` and one scan of H's rows, made at the first read."""
        q, r = self.field.q, self.params.r
        reduced, pivots = gf.rref_mod(self.H, q)
        pivot_set = set(pivots)
        frees = np.array([j for j in range(self.params.n) if j not in pivot_set], dtype=np.intp)
        parity = -reduced[:, frees] % q
        pivots = np.array(pivots, dtype=np.intp)
        for array in (pivots, frees, parity):
            array.setflags(write=False)  # shared by every call on this code
        covers = [None] * self.params.n
        for row in self.H.tolist():
            support = [j for j, x in enumerate(row) if x]
            if len(support) > r + 1:
                continue
            for j in support:
                if covers[j] is None:
                    others = tuple(l for l in support if l != j)
                    covers[j] = (others, tuple(row[l] for l in others), pow(row[j], -1, q))
        return _Plan(len(pivots), pivots, frees, parity, tuple(covers), _row_masks(self.H))


def _row_masks(h: np.ndarray) -> tuple[int, ...]:
    """Each row's support as a Python int, bit j for column j, exact at any n."""
    packed = np.packbits(h != 0, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))


def default_field(p: CodeParams) -> PrimeField:
    """Smallest prime exceeding (d* - 1) * C(n, d* - 1)."""
    return PrimeField(gf.next_prime_above((p.d_star - 1) * comb(p.n, p.d_star - 1)))


def build_parity_check(t: FullTannerGraph, field: PrimeField, seed: int) -> LinearCode:
    """Uniform nonzero entries exactly on the Tanner adjacencies; deterministic in seed.

    Rows are the checks, locals first; a global check row is nonzero in every
    column.  Over GF(2) every adjacency becomes a 1.
    """
    p = t.params
    rng = np.random.default_rng(seed)
    h = np.zeros((p.n - p.k, p.n), dtype=np.int64)
    local = len(t.local_checks)
    rows = np.repeat(np.arange(local), [len(check) for check in t.local_checks])
    columns = [j for check in t.local_checks for j in sorted(check)]
    # one draw of many entries reads the generator's stream as one draw per entry does
    h[rows, columns] = rng.integers(1, field.q, size=len(columns))
    h[local:] = rng.integers(1, field.q, size=(p.n - p.k - local, p.n))
    return LinearCode(params=p, field=field, H=h)


def _check_distance_envelope(p: CodeParams) -> None:
    """Reject a code whose exhaustive distance search lies outside the envelope."""
    if p.n > DISTANCE_LENGTH_ENVELOPE:
        raise EnvelopeExceeded(f"distance search limited to n <= {DISTANCE_LENGTH_ENVELOPE}")


def _has_dependent_columns(h: np.ndarray, q: int, w: int) -> bool:
    """Whether some w columns of h, 1 <= w <= rows, are linearly dependent over GF(q).

    One kernel call extends the empty prefix by w columns, one pivot step
    per column after the first; w = 1 is the zero-column test.
    """
    return not gf.batch_columns_independent(h, q, np.empty(0, dtype=np.int64), w)


def min_distance(c: LinearCode, floor: int = 0) -> int:
    """Exact minimum distance: the smallest w for which some w columns of H
    are linearly dependent over GF(q).

    H's zero pattern gives the bound b = m + 1 - eta, for the largest eta
    of its m rows that are nonzero on fewer than eta + k columns (0 if no
    rows are): some b columns are then dependent over every field.
    Independence is hereditary (a subset of independent columns is
    independent), so when no b - 1 columns are dependent, the distance is
    b; otherwise the scan goes up from w = 1 and stops at the first
    dependent level, or at b - 1.

    With ``floor``, the result is max(distance, floor), and no level below
    ``floor`` is scanned: a distance at or below ``floor`` reads ``floor``
    at the first dependent set of that level, which is all that a check of
    "distance = floor + 1" needs.
    """
    if not is_int(floor) or floor < 0:
        raise BadArgs(f"floor must be an integer >= 0, got {floor!r}")
    p, h, q = c.params, c.H, c.field.q
    _check_distance_envelope(p)
    m, n = h.shape
    if c.plan.rank != m:
        raise DegenerateCode("parity-check matrix does not have full row rank")
    # a row set holding a dense row never fails: its union has all n = m + k columns
    full = (1 << n) - 1
    masks = [mask for mask in c.plan.masks if mask != full]
    b = m + 1 - len(failing_checks(masks, p.k) or ())
    if b <= floor:
        return floor
    if b == 1 or not _has_dependent_columns(h, q, b - 1):
        return b
    levels = range(max(floor, 1), b - 1)
    return next((w for w in levels if _has_dependent_columns(h, q, w)), b - 1)


def verify_locality(c: LinearCode) -> bool:
    """Every coordinate must carry a nonzero entry in some row of weight <= r + 1:
    every coordinate has a cover in the code's plan."""
    return None not in c.plan.covers


def verify_code(c: LinearCode, floor: int = 0) -> tuple[bool, bool, int | None]:
    """Exact checks of a code: (full row rank, locality, minimum distance).

    The distance is None when H lacks full row rank; ``min_distance`` checks
    the rank itself, so it is computed once.  ``floor`` is passed on to it.
    The distance envelope is checked first, before the plan's row reduction.
    """
    _check_distance_envelope(c.params)
    locality = verify_locality(c)
    try:
        return True, locality, min_distance(c, floor)
    except DegenerateCode:
        return False, locality, None


def construct_optimal_lrc(
    p: CodeParams,
    field: PrimeField | None = None,
    seed: int = 0,
    max_retries: int = 16,
) -> LinearCode:
    """Decide the instance, and when the answer is d*, build and verify a code.

    The distance envelope, ``verify``'s n <= 20 at any d*, is checked first,
    since it needs only p.  Attempt i uses seed + i; ``verify_code`` checks
    each attempt exhaustively (full row rank, locality, exact minimum
    distance equal to the decided value).  Its floor is d* - 1, so an
    attempt whose distance falls short stops at the first dependent set of
    level d* - 1 and is not measured further.  A single attempt fails with
    probability at most (d*-1)*C(n, d*-1)/q by the union bound, so over the
    default field (q just above that product) the bound is under one and the
    observed rate is far lower; over a user-supplied small field success may
    be rare or impossible, and ``max_retries`` caps the spend before
    RetriesExhausted.
    """
    if not is_int(seed) or seed < 0:
        raise BadArgs(f"seed must be an integer >= 0, got {seed!r}")
    if not is_int(max_retries) or max_retries < 1:
        raise BadArgs(f"max_retries must be an integer >= 1, got {max_retries!r}")
    _check_distance_envelope(p)
    decision = decide(p)
    if decision.status != "exact":
        raise NotAchievable(
            f"decision unresolved for (n={p.n}, k={p.k}, r={p.r}); no witness to build from"
        )
    if decision.value != p.d_star:
        raise NotAchievable(
            f"best achievable distance for (n={p.n}, k={p.k}, r={p.r}) is "
            f"d* - 1 = {decision.value}; the optimal construction does not exist"
        )
    t = p2f(graph_to_pruned(decision.witness, p))
    fld = field if field is not None else default_field(p)
    for attempt in range(1, max_retries + 1):
        # built as the code it returns, so the plan verification makes serves encode and repair
        code = replace(build_parity_check(t, fld, seed + attempt - 1),
                       claimed_distance=p.d_star, verified=True, attempts=attempt)
        # a distance below d* reads d* - 1 at the first dependent set of level d* - 1
        if verify_code(code, p.d_star - 1) == (True, True, p.d_star):
            return code
    raise RetriesExhausted(
        f"no verified code in {max_retries} attempts over GF({fld.q})",
        attempts=max_retries,
    )


_BOOL_TYPES = frozenset((bool, np.bool_))


def _symbols(values, length: int, what: str) -> np.ndarray:
    """``values`` as an int64 vector of ``length`` integers, else BadArgs.

    Checked on the NumPy dtype, not entry by entry: floats, strings, bools
    and integers past int64 give no integer dtype that casts to int64.  A
    bool among integers would give one, so a list or tuple is first
    scanned for bool types, at C speed.
    """
    if isinstance(values, (list, tuple)) and not _BOOL_TYPES.isdisjoint(map(type, values)):
        raise BadArgs(f"{what} must be {length} integers, got a bool among them")
    try:
        a = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise BadArgs(f"{what} must be {length} integers: {exc}") from exc
    if a.dtype.kind not in "iu" or not np.can_cast(a.dtype, np.int64) or a.shape != (length,):
        raise BadArgs(f"{what} must be {length} integers, got {a.dtype} of shape {a.shape}")
    return a.astype(np.int64, copy=False)


def encode(c: LinearCode, message: list[int] | np.ndarray) -> np.ndarray:
    """Systematic encoding: message symbols sit on the non-pivot columns of
    the row-reduced parity-check matrix, pivot columns are solved from them.

    The row reduction and its parity block come from the code's plan.  Each
    call checks the message and takes two products mod q: one solves the
    pivot symbols, the other checks H c = 0.
    """
    p, q, plan = c.params, c.field.q, c.plan
    msg = _symbols(message, p.k, "message") % q
    if plan.rank != p.n - p.k:
        raise DegenerateCode("parity-check matrix does not have full row rank")
    word = np.empty(p.n, dtype=np.int64)
    word[plan.frees] = msg
    # every product is reduced before summing: q**2 alone nearly fills int64
    word[plan.pivots] = (plan.parity * msg % q).sum(axis=1) % q
    if ((c.H * word % q).sum(axis=1) % q).any():
        raise SelfCheckFailed("encoded word fails the parity check H c = 0")
    return word


def repair_symbol(c: LinearCode, word: list[int | None]) -> int:
    """Recover the single erased coordinate through a covering local row.

    Reads at most r other coordinates: the lowest-index row of weight
    <= r + 1 that is nonzero on the erased position.  The code's plan holds
    that row's other columns and entries and the inverse of its erased
    entry.  Each call checks the word, looks the cover up and takes one dot
    product in Python integers.
    """
    p, q = c.params, c.field.q
    if len(word) != p.n:
        raise BadArgs(f"word must have length n = {p.n}, got {len(word)}")
    erased = [j for j, x in enumerate(word) if x is None]
    if len(erased) != 1:
        raise BadArgs(f"expected exactly one erasure, got {len(erased)}")
    j = erased[0]
    _symbols([*word[:j], *word[j + 1:]], p.n - 1, "the word's other symbols")
    cover = c.plan.covers[j]
    if cover is None:
        raise NoLocalCover(f"no row of weight <= r + 1 covers coordinate {j}")
    others, entries, inverse = cover
    return -sum(a * int(word[l]) for l, a in zip(others, entries)) * inverse % q


def code_to_json(c: LinearCode) -> dict:
    return {
        "n": c.params.n,
        "k": c.params.k,
        "r": c.params.r,
        "q": c.field.q,
        "H": [[int(x) for x in row] for row in c.H],
        "claimed_distance": c.claimed_distance,
        "verified": c.verified,
    }


def code_from_json(data: dict) -> LinearCode:
    try:
        p = derive_params(data["n"], data["k"], data["r"])
        field = PrimeField(data["q"])
        rows, claimed, verified = data["H"], data["claimed_distance"], data["verified"]
        # np.array would silently truncate 1.5 to 1 and read true as 1
        if not all(is_int(x) for row in rows for x in row):
            raise BadArgs("matrix entries must be integers")
        h = np.array(rows, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BadArgs(f"malformed code JSON: {exc}") from exc
    if not (claimed is None or is_int(claimed)) or not isinstance(verified, bool):
        raise BadArgs("claimed_distance must be an integer or null, verified a boolean")
    return LinearCode(params=p, field=field, H=h, claimed_distance=claimed, verified=verified)
