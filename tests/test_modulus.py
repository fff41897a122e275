import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxmod import Polynomial, ZeroPolynomialError, expand, parse_poly
from maxmod.modulus import _c_pairs
from oracles import c_pairs_loop, derivative_bounds, direct_mod2, term_expansion

EPS = np.finfo(float).eps


def random_poly(rng, max_deg=10, scale=1.0):
    deg = int(rng.integers(1, max_deg + 1))
    cs = scale * (rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
    if cs[-1] == 0:
        cs[-1] = scale
    return Polynomial(tuple(cs))


class TestExpand:
    def test_constant(self):
        e = term_expansion(Polynomial((1,)))
        assert e.diagonal == [(0.0, 1.0)]
        assert e.cross == []

    def test_two_unit_coeffs(self):
        e = term_expansion(Polynomial((1, 1)))
        assert e.diagonal == [(0.0, 1.0), (2.0, 1.0)]
        assert e.cross == [(1.0, 2.0, 1.0, 0.0)]

    def test_cubic_term_count_and_value(self):
        p = parse_poly("1,0,1,1i")
        e = term_expansion(p)
        assert len(e.diagonal) == 3 and len(e.cross) == 3
        assert math.isclose(e.mod2(1.0, 0.0), 5.0, abs_tol=1e-14)  # |2+i|^2

    def test_term_count_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_poly(rng)
            t = len(p.nonzero_exponents())
            e = term_expansion(p)
            assert len(e.diagonal) == t
            assert len(e.cross) == t * (t - 1) // 2

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            expand(Polynomial(()))

    def test_ascending_power_order(self):
        e = term_expansion(parse_poly("1,2,0,1i,4"))
        assert np.all(np.diff(e.cross_pows) >= 0)


class TestCPairs:
    def test_scatter_matches_order_loop(self):
        # one scatter of c_l conj(c_j), j < l, gives the bits of the loop
        # over the orders n = l - j, on every degree 1-30: complex, real and
        # sparse coefficients, and products beyond the float range
        rng = np.random.default_rng(30)
        for deg in range(1, 31):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            sparse = np.where(rng.random(deg + 1) < 0.5, 0.0, c)
            huge = c * 10.0 ** rng.uniform(150, 300, deg + 1)
            for cs in (c, c.real.astype(complex), sparse, huge):
                cs[0] = 1.0
                got = _c_pairs(cs)
                assert got.shape == (2 * deg, deg) and not got.flags.writeable
                assert np.array_equal(got.view(np.uint64), c_pairs_loop(cs).view(np.uint64)), deg
        assert np.isinf(_c_pairs(huge)).any()


class TestMod2:
    def test_binomial_values(self):
        e = term_expansion(Polynomial((1, 1)))
        assert e.mod2(1.0, 0.0) == 4.0
        assert e.mod2(1.0, math.pi) == 0.0

    def test_agreement_at_example_point(self):
        p = parse_poly("1,0,1,1i")
        e = term_expansion(p)
        got = e.mod2(0.1, 0.0)
        want = direct_mod2(p, 0.1, 0.0)
        assert abs(got - want) <= 1e-14 * max(1.0, want)

    def test_direct_oracle_trivials(self):
        assert direct_mod2(Polynomial((1,)), 0.77, 1.3) == 1.0
        assert direct_mod2(Polynomial((0, 1)), 2.0, 0.4) == pytest.approx(4.0, abs=1e-15)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            p = random_poly(rng)
            e = term_expansion(p)
            r = float(rng.uniform(0, 1))
            th = float(rng.uniform(-math.pi, math.pi))
            m1 = e.mod2(r, th)
            m2 = direct_mod2(p, r, th)
            assert abs(m1 - m2) <= 1e-12 * max(1.0, m1)

    def test_periodicity(self):
        e = term_expansion(parse_poly("1,0,1,1i"))
        for th in (0.1, -2.5, 3.0):
            a = e.mod2(0.5, th)
            b = e.mod2(0.5, th + 2 * math.pi)
            assert abs(a - b) <= 4 * EPS * max(1.0, abs(a))

    def test_array_theta(self):
        e = term_expansion(parse_poly("1,0,1,1i"))
        th = np.linspace(-math.pi, math.pi, 64)
        vals = e.mod2(0.3, th)
        assert vals.shape == (64,)
        assert vals[0] == e.mod2(0.3, float(th[0]))

    def test_base_plus_osc(self):
        e = term_expansion(parse_poly("1,0,1,1i"))
        r, th = 0.4, 1.1
        assert e.base(r) + e.osc(r, th) == pytest.approx(e.mod2(r, th), rel=1e-15)

    def test_osc_of_given_rows_reads_nothing_of_the_expansion(self):
        # a hunt's count evaluates the rows of every member of a row group
        # through one member's expansion
        a, b = expand(parse_poly("1,0,1,1i")), expand(parse_poly("2,-1,0.5,3"))
        radii = np.array([[0.05], [0.4]])
        th = np.linspace(-math.pi, math.pi, 33)
        for r in (0.3, radii):
            cn = b.fourier(r)
            assert np.array_equal(a.osc(r, th, cn=cn), b.osc(r, th))


class TestDerivatives:
    def test_zero_radius(self):
        e = term_expansion(parse_poly("1,2,3i,4"))
        d1, d2 = e.d1d2(0.0, 1.234)
        assert d1[0] == 0.0
        assert d2[0] == 0.0

    def test_two_term_exact_formula(self):
        # single cross term: derivative is exactly -2|a| k r^k sin(k t + arg a)
        for a, k in ((2j, 3), (1.5, 1), (-0.7 + 0.2j, 4)):
            coeffs = [1.0 + 0j] + [0j] * (k - 1) + [a]
            e = term_expansion(Polynomial(tuple(coeffs)))
            for r, th in ((0.3, 0.7), (0.9, -2.0), (0.05, 3.1)):
                want = -2 * abs(a) * k * r**k * math.sin(k * th + cmath.phase(a))
                got = e.d1d2(r, th)[0][0]
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_central_difference(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = random_poly(rng)
            e = term_expansion(p)
            r = float(rng.uniform(0.2, 1.0))
            th = float(rng.uniform(-math.pi, math.pi))
            h = 1e-6
            fd = (e.mod2(r, th + h) - e.mod2(r, th - h)) / (2 * h)
            exact = e.d1d2(r, th)[0][0]
            amp_r = e.cross_amps * r**e.cross_pows
            scale = max(1.0, float(np.sum(amp_r * e.cross_freqs)))
            assert abs(fd - exact) <= 1e-7 * scale

    def test_second_derivative_fd(self):
        e = term_expansion(parse_poly("1,0,1,1i"))
        r, th, h = 0.6, 0.9, 1e-5
        fd = (e.d1d2(r, th + h)[0][0] - e.d1d2(r, th - h)[0][0]) / (2 * h)
        assert abs(fd - e.d1d2(r, th)[1][0]) <= 1e-7

    def test_derivative_integrates_to_zero(self):
        e = term_expansion(parse_poly("1,0,1,1i"))
        n = 1 << 12
        th = np.linspace(0.0, 2 * math.pi, n + 1)
        vals, _ = e.d1d2(0.7, th)
        # the periodic trapezoid rule: theta = 0 and 2 pi are one point
        assert abs(vals[:-1].sum() * (2 * math.pi / n)) <= 1e-10


class TestReflectionIdentity:
    def test_cubic_reflection_formula(self):
        # |q(r e^{i t})|^2 - |q(r e^{i(pi-t)})|^2
        #   = 4 r^3 |b| cos(arg b) (cos 3t + r^2 cos t)  for q = 1 + z^2 + b z^3
        rng = np.random.default_rng(17)
        for _ in range(5):
            b = rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            q = Polynomial((1, 0, 1, b))
            e = term_expansion(q)
            phi = cmath.phase(b)
            for _ in range(40):
                r = float(rng.uniform(0, 1))
                th = float(rng.uniform(-math.pi, math.pi))
                lhs = e.mod2(r, th) - e.mod2(r, math.pi - th)
                rhs = 4 * r**3 * abs(b) * math.cos(phi) * (math.cos(3 * th) + r * r * math.cos(th))
                assert abs(lhs - rhs) <= 1e-12


@st.composite
def fourier_cases(draw):
    # moduli within a factor 100 of each other: either evaluation's rounding
    # error scales with (sum |a_l| r^l)^2, the spread with products of the
    # moduli, so the ratio of the two stays bounded on the drawn inputs
    nonzero = st.builds(cmath.rect, st.floats(0.1, 10), st.floats(-math.pi, math.pi))
    coeff = st.one_of(st.just(0j), nonzero)
    deg = draw(st.integers(1, 10))
    cs = [draw(coeff) for _ in range(deg)] + [draw(nonzero)]  # a_0 = 0 allowed
    return Polynomial(tuple(cs)), draw(st.floats(1e-3, 1.0))


def term_d1d2(e, r, th):
    """Termwise theta-derivatives of the expansion's cross sum."""
    ap = e.cross_amps * r**e.cross_pows
    arg = np.outer(e.cross_freqs, th) + e.cross_phas[:, None]
    d1 = -np.sum((ap * e.cross_freqs)[:, None] * np.sin(arg), axis=0)
    d2 = -np.sum((ap * e.cross_freqs**2)[:, None] * np.cos(arg), axis=0)
    return d1, d2


class TestFourier:
    def test_array_radius_matches_scalar(self):
        e = term_expansion(parse_poly("1,1,1i,1,-1,1i,0.5,1,2"))
        radii = np.geomspace(0.3, 1e-3, 7)
        th = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        # a batch may round unlike one point alone; every frequency is >= 1,
        # so |osc| <= B1, the bound of the first derivative, and each value
        # is within a few ulps of that
        b1, b2 = derivative_bounds(e, radii)
        tol1 = 4 * EPS * b1
        tol2 = 4 * EPS * b2
        # one row per radius: every row, not only the first, is its radius's
        grid = e.osc(radii[:, None], th)
        assert grid.shape == (7, 64)
        for row, r, tol in zip(grid, radii, tol1):
            assert np.max(np.abs(row - e.osc(float(r), th))) <= tol
        # one radius per angle, against one-point calls
        rs = np.repeat(radii, 3)
        ts = th[: rs.size]
        osc = e.osc(rs, ts)
        d1, d2 = e.d1d2(rs, ts)
        for i, (r, t) in enumerate(zip(rs, ts)):
            k = i // 3
            assert abs(osc[i] - e.osc(float(r), float(t))) <= tol1[k]
            p1, p2 = e.d1d2(float(r), np.array([t]))
            assert abs(d1[i] - p1[0]) <= tol1[k]
            assert abs(d2[i] - p2[0]) <= tol2[k]
        assert e.base(radii).tolist() == [e.base(float(r)) for r in radii]

    @settings(max_examples=300, deadline=None)
    @given(fourier_cases())
    def test_fourier_path_matches_expansion_and_oracle(self, case):
        p, r = case
        e = term_expansion(p)
        th = np.linspace(-math.pi, math.pi, 256, endpoint=False) + 0.01
        terms = e.osc_terms(r, th)
        spread = float(terms.max() - terms.min())
        assert np.max(np.abs(e.osc(r, th) - terms)) <= 1e-13 * spread

        d1, d2 = e.d1d2(r, th)
        t1, t2 = term_d1d2(e, r, th)
        b1, b2 = (e.scale(r) * b for b in derivative_bounds(e, r))
        assert np.max(np.abs(d1 - t1)) <= 1e-13 * b1
        assert np.max(np.abs(d2 - t2)) <= 1e-13 * b2

        mass2 = sum(abs(c) * r**l for l, c in enumerate(p.coeffs)) ** 2
        for t in th[::17]:
            got = e.base(r) + e.osc(r, float(t))
            assert abs(got - direct_mod2(p, r, float(t))) <= 1e-13 * mass2

    def test_fourier_matches_fft_of_direct_values(self):
        # C_n(r) is bin n of the discrete Fourier transform of |1 + q|^2 on
        # N = 2D + 2 equispaced angles: the sum has frequencies -D..D only,
        # so no bin aliases another
        rng = np.random.default_rng(2026)
        for deg in (2, 3, 5, 8, 13, 21, 30, 40):
            for real in (False, True):
                a = rng.standard_normal(deg + 1)
                if not real:
                    a = a + 1j * rng.standard_normal(deg + 1)
                a[1:deg][rng.uniform(size=deg - 1) < 0.3] = 0.0
                c = a / a[0]
                e = expand(Polynomial(tuple(complex(x) for x in a)))
                n_pts = 2 * deg + 2
                w = np.exp(2j * math.pi * np.arange(n_pts) / n_pts)
                for r in (0.02, 0.1, 0.3, 0.6, 0.9):
                    vals = np.polyval(c[::-1], r * w)
                    want = np.fft.fft(vals.real**2 + vals.imag**2)[1 : deg + 1] / n_pts
                    got = e.fourier(r)
                    assert got.shape == (deg,)
                    bound = 64 * EPS * float(np.sum(np.abs(c) * r ** np.arange(deg + 1))) ** 2
                    assert np.max(np.abs(got - want)) <= bound, (deg, real, r)

    def test_fourier_where_radius_powers_overflow(self):
        # at r = 1e160, r^2 and r^3 are not floats, yet every C_n of
        # 1 + 0.5 z + 1e-300i z^2 is; a radius whose powers are floats keeps
        # the plain product's bits
        e = expand(Polynomial((1, 0.5, 1e-300j)))
        big = 1e160
        r = np.array([0.5, big])
        with np.errstate(over="raise", invalid="raise"):
            cn = e.fourier(r)
        assert np.array_equal(cn[0], e.fourier(0.5))
        b = 1e-300 * big  # c_2 r, a float
        want = [0.5 * big + 0.5j * b * big * big, 1j * b * big]
        assert np.allclose(cn[1], want, rtol=8 * EPS, atol=0)
