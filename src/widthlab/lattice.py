"""Integer multi-indices in Euclidean balls.

The lattice ball ``K_{k,d} = {K in Z^d : ||K||_2 <= k}`` indexes every basis
function used in this package; its size ``Q_{k,d}`` drives both the upper and
lower width bounds.  This module enumerates and counts balls exactly and
classifies indices into the sin/cos partition of ``Z^d \\ {0}``.

A multi-index is represented as a plain tuple of Python ints, so all norm
comparisons are exact integer arithmetic.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .caps import active_cap
from .errors import CapExceeded, ParameterOutOfRange

MultiIndex = tuple[int, ...]


class IndexClass(Enum):
    """Membership of a multi-index in the sin/cos partition of Z^d."""

    ZERO = "zero"
    SIN = "sin"
    COS = "cos"


def l2_norm_sq(K: MultiIndex) -> int:
    """Exact squared Euclidean norm of an integer multi-index."""
    return sum(c * c for c in K)


def negate(K: MultiIndex) -> MultiIndex:
    return tuple(-c for c in K)


def classify(K: MultiIndex) -> IndexClass:
    """Classify ``K`` by the sign of its first nonzero coordinate.

    The zero index is its own class; otherwise a positive leading coordinate
    means SIN and a negative one means COS.  For every ``K != 0`` exactly one
    of ``K, -K`` is SIN and the other COS, so the two halves partition
    ``Z^d \\ {0}``.
    """
    for c in K:
        if c > 0:
            return IndexClass.SIN
        if c < 0:
            return IndexClass.COS
    return IndexClass.ZERO


def radius_sq_bound(k: float) -> int:
    """Largest integer ``n`` with ``n <= k^2``, computed exactly.

    ``k^2`` is formed in rational arithmetic from the binary value of ``k`` so
    that boundary indices (``||K||_2^2 == k^2`` when ``k^2`` is integral) are
    included without float rounding surprises.
    """
    if k < 0:
        raise ParameterOutOfRange(f"radius must be nonnegative, got {k}")
    kf = Fraction(k)
    return math.floor(kf * kf)


@lru_cache(maxsize=None)
def _ball_count(budget: int, n: int) -> int:
    """Number of K in Z^n with sum of squares <= budget (coordinate recursion)."""
    if budget < 0:
        return 0
    if n == 0:
        return 1
    total = _ball_count(budget, n - 1)
    for i in range(1, math.isqrt(budget) + 1):
        total += 2 * _ball_count(budget - i * i, n - 1)
    return total


def count_ball(k: float, d: int) -> int:
    """Exact ``Q_{k,d}``, the number of integer points with ``||K||_2 <= k``.

    Uses a cached coordinate recursion, so no points are materialized and
    large counts are fine.
    """
    if d < 1:
        raise ParameterOutOfRange(f"dimension must be >= 1, got {d}")
    return _ball_count(radius_sq_bound(k), d)


def check_ball_cap(k: float, d: int, cap: int | None = None) -> None:
    """Raise :class:`CapExceeded` if ``Q_{k,d}`` exceeds the active cap.

    The exact count costs about 10x more per doubling of ``k``, so the cube
    ``|K_i| <= m`` with ``d m^2 <= k^2``, which lies inside the ball, is
    compared with the cap first.
    """
    if d < 1:
        raise ParameterOutOfRange(f"dimension must be >= 1, got {d}")
    bound, limit = radius_sq_bound(k), active_cap(cap)
    side = 2 * math.isqrt(bound // d) + 1
    # side >= 3 gives side^e > cap once e reaches the cap's bit length
    if side ** min(d, limit.bit_length()) > limit or _ball_count(bound, d) > limit:
        raise CapExceeded(f"ball k={k}, d={d} holds more than the cap of {limit} indices")


def enumerate_ball(k: float, d: int, cap: int | None = None) -> list[MultiIndex]:
    """All ``K in Z^d`` with ``||K||_2 <= k``, in lexicographic order.

    Raises
    ------
    CapExceeded
        If the exact count (checked first, without materializing) exceeds the
        active cap.
    """
    check_ball_cap(k, d, cap)
    bound = radius_sq_bound(k)
    out: list[MultiIndex] = []

    def descend(prefix: tuple[int, ...], budget: int) -> None:
        if len(prefix) == d:
            out.append(prefix)
            return
        r = math.isqrt(budget)
        for c in range(-r, r + 1):
            descend(prefix + (c,), budget - c * c)

    descend((), bound)
    return out


def exponent_envelope(k: float, d: int) -> float:
    """The growth envelope ``min(d log(k^2/d + 2), k^2 log(d/k^2 + 2))``.

    Reporting aid: ``log Q_{k,d}`` is Theta of this quantity, and acceptance
    checks only use its growth direction, never the hidden constants.
    """
    if k < 1:
        raise ParameterOutOfRange(f"envelope defined for k >= 1, got {k}")
    if d < 1:
        raise ParameterOutOfRange(f"dimension must be >= 1, got {d}")
    k2 = float(k) * float(k)
    return min(d * math.log(k2 / d + 2.0), k2 * math.log(d / k2 + 2.0))
