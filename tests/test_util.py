import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxmod.util import TWO_PI, circ_dist, reduce_angle

in_range = st.floats(min_value=-math.pi, max_value=math.pi).filter(lambda x: x != -math.pi)
angles = st.floats(min_value=-1e6, max_value=1e6)
huge = st.floats(min_value=-1e300, max_value=1e300)
# the fold's edges and the zeros: where the scalar and the array path could
# first part ways
EDGES = [
    0.0,
    -0.0,
    math.pi,
    -math.pi,
    math.nextafter(math.pi, 0.0),
    math.nextafter(math.pi, math.inf),
    math.nextafter(-math.pi, 0.0),
    math.nextafter(-math.pi, -math.inf),
    TWO_PI,
    -TWO_PI,
    3 * math.pi,
    -3 * math.pi,
]


def bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestReduceAngle:
    @given(in_range)
    def test_in_range_comes_back_bit_for_bit(self, x):
        y = reduce_angle(x)
        assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)

    @given(angles)
    def test_odd_in_range_and_congruent(self, x):
        y = reduce_angle(x)
        assert -math.pi < y <= math.pi
        assert reduce_angle(-x) == (math.pi if y == math.pi else -y)
        assert abs(math.remainder(x - y, TWO_PI)) <= 2 * math.ulp(max(abs(x), 4.0))

    def test_uniform_angles_unchanged(self):
        # at the round trip through remainder(., 2 pi) 41% of the negative
        # angles came back changed, -0.3 as -0.2999999999999998
        x = np.random.default_rng(0).uniform(-math.pi, math.pi, 100_000)
        assert np.array_equal(reduce_angle(x), x)
        assert np.array_equal(reduce_angle(-x), -x)
        assert reduce_angle(-0.3) == -0.3
        assert reduce_angle(-math.pi) == reduce_angle(math.pi) == math.pi
        assert reduce_angle(np.array([3 * math.pi, -3 * math.pi])).tolist() == [math.pi] * 2


class TestScalarFold:
    """A finite float is folded on Python floats; an array with NumPy.  The
    two must agree bit for bit, the sign of a zero included."""

    @staticmethod
    def assert_same_bits(x):
        y = reduce_angle(x)
        assert type(y) is float
        assert bits(y) == bits(reduce_angle(np.array([x]))[0])

    @given(angles | huge)
    def test_moderate_and_huge_angles(self, x):
        self.assert_same_bits(x)

    @pytest.mark.parametrize("x", EDGES)
    def test_edges(self, x):
        self.assert_same_bits(x)
        self.assert_same_bits(np.float64(x))

    def test_zero_keeps_its_sign(self):
        assert bits(reduce_angle(-0.0)) == bits(-0.0)
        assert bits(reduce_angle(0.0)) == bits(0.0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_gives_nan(self, x):
        # math.fmod raises ValueError on inf, so inf must take the array path
        with np.errstate(invalid="ignore"):
            assert math.isnan(reduce_angle(x))
            assert math.isnan(reduce_angle(np.float64(x)))
            assert np.isnan(reduce_angle(np.array([x]))).all()


class TestCircDist:
    @given(angles, angles)
    def test_mirror_exact_and_symmetric(self, a, b):
        d = circ_dist(a, b)
        assert d == circ_dist(-a, -b) == circ_dist(b, a)
        ref = abs(math.remainder(a - b, TWO_PI))
        assert abs(d - ref) <= 4 * math.ulp(max(abs(a), abs(b), 4.0))

    def test_seam_at_pi(self):
        # pi is its own mirror image: the distances to -x and x are equal
        for x in (3.0, 2.0, 0.5, 1e-3):
            assert circ_dist(math.pi, -x) == circ_dist(math.pi, x) == math.pi - x
            assert circ_dist(-math.pi, -x) == circ_dist(math.pi, x)
