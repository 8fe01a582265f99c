"""Validation and derivation of code parameters.

An (n, k, r) locally recoverable code has length n, dimension k, and
locality r: every codeword symbol is a linear combination of at most r
other symbols.  The derived quantities used throughout the package are

    k1 = ceil(k / r)          k2 = k1 * r - k
    n1 = ceil(n / (r + 1))    n2 = n1 * (r + 1) - n

together with the locality-aware Singleton bound d* = n - k - k1 + 2.
The best achievable minimum distance is always d* or d* - 1.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidParams


class CodeParams(NamedTuple):
    n: int
    k: int
    r: int
    n1: int
    n2: int
    k1: int
    k2: int
    d_star: int


def is_int(x) -> bool:
    """An int and not a bool (JSON true is not the integer 1 here)."""
    return isinstance(x, int) and not isinstance(x, bool)


def derive_params(n: int, k: int, r: int) -> CodeParams:
    """Validate (n, k, r) and derive n1, n2, k1, k2 and d*.

    Raises InvalidParams with reason "ordering" unless 1 <= r <= k < n,
    and with reason "locality" when n - k < ceil(k / r), i.e. the rate
    exceeds r / (r + 1) and no code with all-symbol locality r exists.
    Inputs with d* <= 1 are rejected rather than special-cased; the
    d*-versus-(d*-1) dichotomy presumes d* >= 2.
    """
    for name, value in (("n", n), ("k", k), ("r", r)):
        if not is_int(value):
            raise InvalidParams(f"{name} must be an integer, got {value!r}", "ordering")
    if not 1 <= r <= k < n:
        raise InvalidParams(f"need 1 <= r <= k < n, got (n={n}, k={k}, r={r})", "ordering")
    k1 = -(-k // r)
    k2 = k1 * r - k
    n1 = -(-n // (r + 1))
    n2 = n1 * (r + 1) - n
    if n - k < k1:
        raise InvalidParams(
            f"locality infeasible: n - k = {n - k} < ceil(k/r) = {k1}", "locality"
        )
    d_star = n - k - k1 + 2
    return CodeParams(n, k, r, n1, n2, k1, k2, d_star)


def is_derived(p) -> bool:
    """Whether p is ``derive_params(p.n, p.k, p.r)``: a hand-built or edited
    CodeParams can hold any n1 or d*, or an (n, k, r) that no code has."""
    try:
        return isinstance(p, CodeParams) and p == derive_params(p.n, p.k, p.r)
    except InvalidParams:
        return False
