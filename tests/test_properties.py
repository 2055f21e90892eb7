"""Generated checks of small helpers against their definitions.

``wilson_interval(s, n)`` is a score interval around the observed rate
``s / n``, ``count_ball(k, d)`` is the number of integer points with
``|K|_2 <= k``, which a scan of the bounding box lists directly.
"""

from __future__ import annotations

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from widthlab import count_ball, wilson_interval  # noqa: E402

from oracles import brute_enumerate  # noqa: E402


@st.composite
def _counts(draw, edge: bool):
    """``(s, n)`` with ``1 <= n <= 10^4``: ``s`` in ``{0, n}``, or strictly between."""
    n = draw(st.integers(1, 10**4) if edge else st.integers(2, 10**4))
    s = draw(st.sampled_from([0, n]) if edge else st.integers(1, n - 1))
    return s, n


@given(_counts(edge=False))
@settings(max_examples=200, deadline=None)
def test_wilson_interval_contains_an_inner_rate(counts):
    s, n = counts
    lo, hi = wilson_interval(s, n)
    assert lo <= s / n <= hi


@given(_counts(edge=True))
@example((0, 11))  # center - half computes to 2.8e-17
@example((100, 100))  # center + half computes to 1 - 1.1e-16
@settings(max_examples=200, deadline=None)
def test_wilson_interval_contains_an_edge_rate(counts):
    s, n = counts
    lo, hi = wilson_interval(s, n)
    assert lo <= s / n <= hi


@given(k=st.floats(0.0, 4.0), d=st.integers(1, 3))
@example(k=math.sqrt(2), d=2)  # the points with |K|^2 = 2 lie on the sphere
@example(k=math.sqrt(3), d=3)  # the float's exact square is below 3: 19 points, not 27
@settings(max_examples=200, deadline=None)
def test_count_ball_matches_a_scan_of_the_box(k, d):
    assert count_ball(k, d) == len(brute_enumerate(k, d))
