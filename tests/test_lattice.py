import math
import time

import numpy as np
import pytest

from widthlab import (
    UNIFORM_CUBE,
    CapExceeded,
    DkDistribution,
    IndexClass,
    ParameterOutOfRange,
    classify,
    count_ball,
    enumerate_ball,
    hard_family_ball,
    l2_norm_sq,
    negate,
    radius_sq_bound,
    tensor_gauss_grid,
    truncate_sobolev,
)
from widthlab.lattice import check_ball_cap

from oracles import brute_counts, brute_enumerate


class TestCountBall:
    """Sizes of integer-lattice balls |K|_2 <= k."""

    def test_known_values(self):
        """Hand-checkable small balls and one large frozen value."""
        assert count_ball(1, 1) == 3
        assert count_ball(1, 2) == 5
        assert count_ball(math.sqrt(2), 2) == 9
        assert count_ball(2, 2) == 13
        assert count_ball(3, 1) == 7
        assert count_ball(3, 2) == 29
        assert count_ball(3, 3) == 123
        assert count_ball(2, 4) == 89
        assert count_ball(5, 6) == 84769

    def test_matches_brute_force(self):
        """Recursion agrees with a convolution count for k <= 5, d <= 6."""
        table = brute_counts(5, 6)
        for (k, d), expected in table.items():
            if k >= 1:
                assert count_ball(k, d) == expected, (k, d)

    def test_monotone_in_radius_and_dimension(self):
        """Counts never decrease when k or d grows."""
        for d in range(1, 5):
            sizes = [count_ball(k, d) for k in range(1, 6)]
            assert sizes == sorted(sizes)
        for k in range(1, 5):
            sizes = [count_ball(k, d) for d in range(1, 6)]
            assert sizes == sorted(sizes)

    def test_boundary_is_exact(self):
        """Membership compares |K|^2 against an exact rational k^2."""
        # 1.9999^2 = 3.9996..., so (+-2, 0) and (0, +-2) stay outside
        assert count_ball(1.9999, 2) == 9
        assert count_ball(2.0, 2) == 13
        # sqrt(2) as a float still admits the diagonal neighbours exactly
        assert count_ball(math.sqrt(2), 2) == 9

    def test_small_radii_keep_only_origin(self):
        """Radii below 1 are legal and the ball degenerates to {0}."""
        assert count_ball(0.0, 3) == 1
        assert count_ball(0.5, 2) == 1
        assert enumerate_ball(0.99, 4) == [(0, 0, 0, 0)]

    def test_thousands_of_dimensions(self):
        """Counting loops over nonzero coordinates, so no recursion d deep."""
        assert count_ball(1, 5000) == 1 + 2 * 5000
        d = 10**6  # |K|^2 <= 4: one coordinate of size 1 or 2, or two to four of size 1
        assert count_ball(2, d) == (1 + 4 * d + 4 * math.comb(d, 2) + 8 * math.comb(d, 3)
                                    + 16 * math.comb(d, 4))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterOutOfRange):
            count_ball(-0.1, 2)
        with pytest.raises(ParameterOutOfRange):
            count_ball(1, 0)


class TestEnumerateBall:
    """Explicit member lists."""

    def test_matches_brute_force_sets(self):
        """Same member set as a bounding-box scan."""
        for k, d in [(1, 1), (2, 2), (3, 2), (math.sqrt(2), 2), (2, 3)]:
            got = enumerate_ball(k, d)
            assert set(got) == set(brute_enumerate(k, d))
            assert len(got) == count_ball(k, d)

    def test_lexicographic_order(self):
        members = enumerate_ball(2, 2)
        assert members == sorted(members)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("WIDTHLAB_CAP", "1000")
        with pytest.raises(CapExceeded):
            enumerate_ball(5, 6)

    def test_far_over_cap_fails_before_exact_count(self):
        # the exact count alone (0.04 s at k = 400, d = 3) grows about as k^3
        start = time.monotonic()
        with pytest.raises(CapExceeded):
            enumerate_ball(4000, 3)
        assert time.monotonic() - start < 1.0

    def test_far_over_cap_in_many_dimensions_fails_fast(self):
        start = time.perf_counter()
        for k, d in [(900, 10**6), (30, 5000), (2, 10**6)]:
            with pytest.raises(CapExceeded):
                check_ball_cap(k, d)
        assert time.perf_counter() - start < 1.0

    def test_check_ball_cap_is_exact(self, monkeypatch):
        # 13 points: the inscribed 3x3 cube passes, the exact count decides
        monkeypatch.setenv("WIDTHLAB_CAP", "13")
        check_ball_cap(2, 2)
        monkeypatch.setenv("WIDTHLAB_CAP", "12")
        with pytest.raises(CapExceeded):
            check_ball_cap(2, 2)

    # Each builds the d = 2 ball of radius 2, 13 indices.  The truncation's grid
    # is built under the default cap: its 9 nodes x 2 coordinates are past a cap
    # of 10 themselves.
    @pytest.mark.parametrize("build", [
        lambda grid=tensor_gauss_grid(UNIFORM_CUBE, 2, 3): truncate_sobolev(
            lambda X: X[:, 0], 1, 4.0, 1.0, grid),
        lambda: hard_family_ball(2, 2),
        lambda: DkDistribution(k=2, dimension=2),
    ], ids=["truncate_sobolev", "hard_family_ball", "DkDistribution"])
    def test_ball_builders_obey_the_cap_from_the_environment(self, monkeypatch, build):
        build()
        monkeypatch.setenv("WIDTHLAB_CAP", "10")
        with pytest.raises(CapExceeded, match="holds more than the cap of 10 indices"):
            build()

    def test_thousands_of_dimensions(self):
        ball = enumerate_ball(1, 1500)
        assert len(ball) == 3001 and ball == sorted(ball)
        assert ball[0] == (-1,) + (0,) * 1499 and ball[-1] == (1,) + (0,) * 1499
        assert enumerate_ball(0.5, 5000) == [(0,) * 5000]

    def test_zero_index_present(self):
        assert (0, 0, 0) in enumerate_ball(1, 3)


class TestClassify:
    """Sign classes split the ball into {0}, sin-indices, cos-indices."""

    def test_zero(self):
        assert classify((0, 0)) is IndexClass.ZERO

    def test_first_nonzero_sign(self):
        assert classify((1, -3)) is IndexClass.SIN
        assert classify((0, 2)) is IndexClass.SIN
        assert classify((-1, 3)) is IndexClass.COS
        assert classify((0, 0, -2)) is IndexClass.COS

    def test_negation_swaps_classes(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            K = tuple(int(v) for v in rng.integers(-3, 4, size=3))
            if classify(K) is IndexClass.ZERO:
                continue
            a, b = classify(K), classify(negate(K))
            assert {a, b} == {IndexClass.SIN, IndexClass.COS}

    def test_ball_partition(self):
        """Ball = {0} + sin half + cos half, and negation is a bijection."""
        members = enumerate_ball(3, 2)
        sin = [K for K in members if classify(K) is IndexClass.SIN]
        cos = [K for K in members if classify(K) is IndexClass.COS]
        assert len(sin) == len(cos)
        assert len(sin) + len(cos) + 1 == len(members)
        assert set(negate(K) for K in sin) == set(cos)


class TestHelpers:
    """Norms and the exact boundary bound."""

    def test_l2_norm_sq(self):
        assert l2_norm_sq((3, -4)) == 25

    def test_radius_sq_bound_exact(self):
        assert radius_sq_bound(math.sqrt(2)) == 2
        assert radius_sq_bound(2) == 4
        assert radius_sq_bound(1.9999) == 3
