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


@lru_cache(maxsize=256)
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
    """Number of K in Z^n with sum of squares <= budget.

    Counts by the number ``m`` of nonzero coordinates: ``C(n, m) 2^m`` sign
    and position choices times the positive ``m``-tuples within the budget.
    ``level`` maps each budget left over to the number of positive tuples of
    the current length that leave it, so the loop runs at most
    ``min(n, budget)`` times whatever ``n`` is.
    """
    if budget < 0:
        return 0
    total, level = 1, {budget: 1}
    for m in range(1, n + 1):
        # tuples of length m: extend each shorter one by a last coordinate i >= 1
        total += math.comb(n, m) * 2**m * sum(count * math.isqrt(left)
                                               for left, count in level.items())
        if m == n:
            break
        grown: dict[int, int] = {}
        for left, count in level.items():
            for i in range(1, math.isqrt(left) + 1):
                grown[left - i * i] = grown.get(left - i * i, 0) + count
        level = {left: count for left, count in grown.items() if left > 0}
        if not level:
            break
    return total


def count_ball(k: float, d: int) -> int:
    """Exact ``Q_{k,d}``, the number of integer points with ``||K||_2 <= k``.

    Counts without materializing any point, so large counts are fine.
    """
    if d < 1:
        raise ParameterOutOfRange(f"dimension must be >= 1, got {d}")
    return _ball_count(radius_sq_bound(k), d)


def check_ball_cap(k: float, d: int) -> None:
    """Raise :class:`CapExceeded` if ``Q_{k,d}`` exceeds the active cap.

    The exact count costs about 10x more per doubling of ``k``, and grows
    with ``d`` too, so two sets inside the ball are compared with the cap
    first: the cube ``|K_i| <= m`` with ``d m^2 <= k^2``, and the points with
    ``j = min(floor(k^2), d)`` coordinates equal to +-1 and the rest 0.
    """
    if d < 1:
        raise ParameterOutOfRange(f"dimension must be >= 1, got {d}")
    bound, limit = radius_sq_bound(k), active_cap()
    side, bits = 2 * math.isqrt(bound // d) + 1, limit.bit_length()
    # side^e (side >= 3) and 2^j C(d, j) both pass the cap once e or j reaches its bit length
    ones = min(bound, d, bits)
    if (side ** min(d, bits) > limit or 2**ones * math.comb(d, ones) > limit
            or _ball_count(bound, d) > limit):
        raise CapExceeded(f"ball k={k}, d={d} holds more than the cap of {limit} indices")


def enumerate_ball(k: float, d: int) -> list[MultiIndex]:
    """All ``K in Z^d`` with ``||K||_2 <= k``, in lexicographic order.

    Raises
    ------
    CapExceeded
        If the exact count (checked first, without materializing) exceeds the
        active cap.
    """
    check_ball_cap(k, d)
    out: list[MultiIndex] = []
    zeros = (0,) * d
    # Depth-first over prefixes and the budget they leave, smallest next
    # coordinate on top; a spent budget completes its prefix with zeros at once.
    stack: list[tuple[MultiIndex, int]] = [((), radius_sq_bound(k))]
    while stack:
        prefix, left = stack.pop()
        if left == 0 or len(prefix) == d:
            out.append(prefix + zeros[len(prefix):])
            continue
        r = math.isqrt(left)
        stack.extend((prefix + (c,), left - c * c) for c in range(r, -r - 1, -1))
    return out
