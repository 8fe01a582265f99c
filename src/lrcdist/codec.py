"""Finite-field back end: randomized parity-check matrices and exact verification.

A full Tanner graph fixes which entries of the (n-k) x n parity-check
matrix may be nonzero.  Filling those entries uniformly at random from a
large enough prime field yields, with overwhelming probability, a code
whose minimum distance matches the decided optimum; the default modulus
is the smallest prime above (d* - 1) * C(n, d* - 1), the point where the
union-bound failure estimate drops below one (observed first-attempt
success is the norm).  Verification is never probabilistic: ``verify_code``
checks rank, locality and minimum distance exhaustively, and it is the one
verifier behind both ``construct_optimal_lrc`` and ``lrcdist verify``.  The
rank is computed once, inside ``min_distance``.

The distance is the smallest w such that some w columns of H are dependent.
``min_distance`` first asks whether any (g - 1)-subset is dependent, for the
claimed distance g (``construct_optimal_lrc`` always claims d*).  If none
is, no smaller subset is dependent either, because independence is
hereditary, and the scan starts at w = g; otherwise it starts at w = 1.
Either way the result is the exact distance; a wrong claim costs one extra
level.  A level is one call of ``gf.batch_columns_independent`` that
builds the w-subsets one column at a time from the empty prefix and
returns one flag for them all: level 1 is the zero-column test, and from
w = 2 on adding a column is one fraction-free pivot step, shared by every
subset that extends the columns chosen so far, and a column whose image
modulo their span reads zero closes a dependent set.  The kernel splits a
level into halves whenever it would hold more than ``gf._ENTRY_BUDGET``
int64 entries, so memory stays flat however many subsets a level has, and
it stops at the first dependent set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

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
from .tanner import FullTannerGraph, graph_to_pruned, p2f

DISTANCE_LENGTH_ENVELOPE = 20
DISTANCE_CLAIM_ENVELOPE = 8
FIELD_ORDER_ENVELOPE = isqrt(2**63 - 1) + 1  # largest q with (q - 1)**2 inside int64


@dataclass(frozen=True)
class PrimeField:
    q: int

    def __post_init__(self):
        # the range test precedes primality: it keeps trial division short
        if not is_int(self.q) or not 2 <= self.q <= FIELD_ORDER_ENVELOPE or not gf.is_prime(self.q):
            raise BadArgs(f"field order must be a prime <= {FIELD_ORDER_ENVELOPE} (int64), got {self.q}")


@dataclass(eq=False)
class LinearCode:
    params: CodeParams
    field: PrimeField
    H: np.ndarray
    claimed_distance: int | None = None
    verified: bool = False
    attempts: int = 0


def default_field(p: CodeParams) -> PrimeField:
    """Smallest prime exceeding (d* - 1) * C(n, d* - 1)."""
    return PrimeField(gf.next_prime_above((p.d_star - 1) * comb(p.n, p.d_star - 1)))


def build_parity_check(t: FullTannerGraph, field: PrimeField, seed: int) -> LinearCode:
    """Uniform nonzero entries exactly on the Tanner adjacencies; deterministic in seed.

    Rows are the checks, locals first; a global check row is nonzero in every
    column.  Over GF(2) every adjacency becomes a 1.
    """
    p = derive_params(t.n, t.k, t.r)
    rng = np.random.default_rng(seed)
    h = np.zeros((t.n - t.k, t.n), dtype=np.int64)
    for i, check in enumerate(t.local_checks):
        for j in sorted(check):
            h[i, j] = int(rng.integers(1, field.q))
    for i in range(len(t.local_checks), t.n - t.k):
        h[i, :] = rng.integers(1, field.q, size=t.n)
    return LinearCode(params=p, field=field, H=h)


def _check_distance_envelope(p: CodeParams, claimed: int | None) -> None:
    """Reject a code whose exhaustive distance search lies outside the envelope."""
    if p.n > DISTANCE_LENGTH_ENVELOPE:
        raise EnvelopeExceeded(f"distance search limited to n <= {DISTANCE_LENGTH_ENVELOPE}")
    if claimed is not None and claimed > DISTANCE_CLAIM_ENVELOPE:
        raise EnvelopeExceeded(f"distance search limited to claimed distance <= {DISTANCE_CLAIM_ENVELOPE}")


def _has_dependent_columns(h: np.ndarray, q: int, w: int) -> bool:
    """Whether some w columns of h, 1 <= w <= rows, are linearly dependent over GF(q).

    One kernel call extends the empty prefix by w columns, one pivot step
    per column after the first; w = 1 is the zero-column test.
    """
    return not gf.batch_columns_independent(h, q, np.empty(0, dtype=np.int64), w)


def min_distance(c: LinearCode) -> int:
    """Exact minimum distance: the smallest w for which some w columns of H
    are linearly dependent over GF(q).

    Independence is hereditary (a subset of independent columns is
    independent), so when no (g - 1)-subset is dependent for the claimed
    distance g, no smaller subset is either and the scan starts at w = g.
    Otherwise, or without a claim, it starts at w = 1.  Any n - k + 1
    columns of the n - k rows are dependent, so that level needs no scan.
    """
    p = c.params
    _check_distance_envelope(p, c.claimed_distance)
    q = c.field.q
    m = p.n - p.k
    if gf.rank_mod(c.H, q) != m:
        raise DegenerateCode("parity-check matrix does not have full row rank")
    g = c.claimed_distance
    from_claim = g is not None and 2 <= g <= m + 1 and not _has_dependent_columns(c.H, q, g - 1)
    for w in range(g if from_claim else 1, m + 1):
        if _has_dependent_columns(c.H, q, w):
            return w
    return m + 1


def verify_locality(c: LinearCode) -> bool:
    """Every coordinate must carry a nonzero entry in some row of weight <= r + 1."""
    weights = (c.H != 0).sum(axis=1)
    local_rows = c.H[weights <= c.params.r + 1]
    if local_rows.size == 0:
        return False
    return bool(((local_rows != 0).any(axis=0)).all())


def verify_code(c: LinearCode) -> tuple[bool, bool, int | None]:
    """Exact checks of a code: (full row rank, locality, minimum distance).

    The distance is None when H lacks full row rank; ``min_distance`` checks
    the rank itself, so it is computed once.
    """
    locality = verify_locality(c)
    try:
        return True, locality, min_distance(c)
    except DegenerateCode:
        return False, locality, None


def construct_optimal_lrc(
    p: CodeParams,
    field: PrimeField | None = None,
    seed: int = 0,
    max_retries: int = 16,
) -> LinearCode:
    """Decide the instance, and when the answer is d*, build and verify a code.

    The distance envelope is checked first, since it needs only p.  Attempt i
    uses seed + i; ``verify_code`` checks each attempt exhaustively (full row
    rank, locality, exact minimum distance equal to the decided value).  A
    single attempt fails with probability at most (d*-1)*C(n, d*-1)/q by the
    union bound, so over the default field (q just above that product) the
    bound is under one and the observed rate is far lower; with a
    user-supplied small field, success decays like (1 - failure_rate) per
    attempt and ``max_retries`` caps the spend before RetriesExhausted.
    """
    if not is_int(seed) or seed < 0:
        raise BadArgs(f"seed must be an integer >= 0, got {seed!r}")
    if not is_int(max_retries) or max_retries < 1:
        raise BadArgs(f"max_retries must be an integer >= 1, got {max_retries!r}")
    _check_distance_envelope(p, p.d_star)
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
        code = build_parity_check(t, fld, seed + attempt - 1)
        code.claimed_distance = p.d_star
        if verify_code(code) != (True, True, p.d_star):
            continue
        code.verified = True
        code.attempts = attempt
        return code
    raise RetriesExhausted(
        f"no verified code in {max_retries} attempts over GF({fld.q}); "
        f"a larger field or more retries will succeed",
        attempts=max_retries,
    )


@lru_cache(maxsize=4)
def _row_reduced(h: bytes, shape: tuple[int, int], q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """``gf.rref_mod`` keyed on the matrix's contents, so a changed H is never served stale."""
    reduced, pivots = gf.rref_mod(np.frombuffer(h, dtype=np.int64).reshape(shape), q)
    reduced.setflags(write=False)  # shared by every encode of this H
    return reduced, tuple(pivots)


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
    """
    p = c.params
    q = c.field.q
    msg = _symbols(message, p.k, "message") % q
    h = np.ascontiguousarray(c.H, dtype=np.int64)
    reduced, pivots = _row_reduced(h.tobytes(), h.shape, q)
    if len(pivots) != p.n - p.k:
        raise DegenerateCode("parity-check matrix does not have full row rank")
    pivot_set = set(pivots)
    frees = [j for j in range(p.n) if j not in pivot_set]
    word = np.zeros(p.n, dtype=np.int64)
    word[frees] = msg
    # every product is reduced before summing: q**2 alone nearly fills int64
    word[list(pivots)] = -((reduced[:, frees] * msg % q).sum(axis=1) % q) % q
    if ((c.H * word % q).sum(axis=1) % q).any():
        raise SelfCheckFailed("encoded word fails the parity check H c = 0")
    return word


def repair_symbol(c: LinearCode, word: list[int | None]) -> int:
    """Recover the single erased coordinate through a covering local row.

    Reads at most r other coordinates: the lowest-index row of weight
    <= r + 1 that is nonzero on the erased position.
    """
    p = c.params
    q = c.field.q
    if len(word) != p.n:
        raise BadArgs(f"word must have length n = {p.n}, got {len(word)}")
    erased = [j for j, x in enumerate(word) if x is None]
    if len(erased) != 1:
        raise BadArgs(f"expected exactly one erasure, got {len(erased)}")
    j = erased[0]
    _symbols([*word[:j], *word[j + 1:]], p.n - 1, "the word's other symbols")
    weights = (c.H != 0).sum(axis=1)
    for i in range(c.H.shape[0]):
        if weights[i] <= p.r + 1 and c.H[i, j] != 0:
            acc = 0
            for l in np.nonzero(c.H[i])[0]:
                if l != j:
                    acc = (acc + int(c.H[i, l]) * int(word[l])) % q
            return (-acc * pow(int(c.H[i, j]), -1, q)) % q
    raise NoLocalCover(f"no row of weight <= r + 1 covers coordinate {j}")


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
    if h.shape != (p.n - p.k, p.n):
        raise BadArgs(f"H must be {(p.n - p.k, p.n)}, got {h.shape}")
    if ((h < 0) | (h >= field.q)).any():
        raise BadArgs("matrix entries must lie in [0, q)")
    return LinearCode(params=p, field=field, H=h, claimed_distance=claimed, verified=verified)
