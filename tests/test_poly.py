import cmath
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxmod import (
    CoefficientRangeError,
    HaymanForm,
    MonomialAllPlaneError,
    Polynomial,
    PolyParseError,
    ZeroPolynomialError,
    classify,
    expand,
    format_poly,
    normalize,
    parse_poly,
    poly_from_json,
    reciprocal,
)
from maxmod.poly import json_float
from maxmod.tracer import TraceResult
from maxmod.util import cached_attribute
from oracles import direct_mod2


def coeff_strategy():
    # zero or normal-range magnitudes; subnormals void ulp-level guarantees
    part = st.one_of(
        st.just(0.0),
        st.floats(1e-3, 2.0),
        st.floats(-2.0, -1e-3),
    )
    return st.builds(complex, part, part)


def poly_strategy(min_terms=2):
    def build(coeffs):
        return Polynomial(tuple(coeffs))

    return (
        st.lists(coeff_strategy(), min_size=min_terms, max_size=10)
        .map(build)
        .filter(lambda p: len(p.nonzero_exponents()) >= min_terms)
    )


class TestParsing:
    def test_text_format(self):
        p = parse_poly("1,0,1,1i")
        assert p.coeffs == (1, 0, 1, 1j)

    @pytest.mark.parametrize(
        "token,value",
        [
            ("1", 1),
            ("-2.5", -2.5),
            ("1i", 1j),
            ("-i", -1j),
            ("i", 1j),
            ("+i", 1j),
            ("0.001+1i", 0.001 + 1j),
            ("1-2i", 1 - 2j),
            ("2.5e-3", 0.0025),
            (" 3 ", 3),
            ("1+i", 1 + 1j),
        ],
    )
    def test_coeff_tokens(self, token, value):
        from maxmod.poly import parse_coeff

        assert parse_coeff(token) == value

    @pytest.mark.parametrize("bad", ["xyz", "", "-", "1+", "+-i", "1 2", "2j"])
    def test_bad_tokens(self, bad):
        with pytest.raises(PolyParseError):
            parse_poly(f"1,{bad}")

    def test_error_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("1,0,@@")
        assert exc.value.position == 2
        assert "@@" in str(exc.value)

    @pytest.mark.parametrize("literal", ["1e-400", "1e-400i", "1e-400+1i", "1-1e-400i", ".5e-999"])
    def test_underflowing_literal_rejected(self, literal):
        # Polynomial trims only exact zeros, so a nonzero literal read as 0.0
        # would silently drop its term
        with pytest.raises(PolyParseError, match="underflows") as exc:
            parse_poly(f"1,0,{literal}")
        assert exc.value.position == 2

    @pytest.mark.parametrize("literal", ["1e-400", "-2.5E-999", "0.001e-330"])
    def test_underflowing_json_literal_rejected(self, literal):
        with pytest.raises(ValueError, match="underflows"):
            json.loads(f'{{"coeffs": [[1, 0], [0, {literal}]]}}', parse_float=json_float)

    @pytest.mark.parametrize("literal", ["1e-320", "0e-400", "0.000e-999", "-0.0", "5e-324"])
    def test_subnormal_and_zero_literals_accepted(self, literal):
        value = float(literal)
        assert parse_poly(f"1,0,{literal}").coeffs[2:] == ((value,) if value else ())
        doc = json.loads(f'{{"coeffs": [[1, 0], [0, 0], [{literal}, 0]]}}', parse_float=json_float)
        assert poly_from_json(doc).coeffs == parse_poly(f"1,0,{literal}").coeffs

    def test_json_format(self):
        p = poly_from_json({"coeffs": [[1, 0], [0, 0], [1, 0], [0, 1]]})
        assert p.coeffs == (1, 0, 1, 1j)
        with pytest.raises(PolyParseError):
            poly_from_json({"nope": []})

    def test_format_round_trip(self):
        for text in ("1,0,1,1i", "2,0,2,2i", "1,-0.5+0.25i,3i"):
            assert parse_poly(format_poly(parse_poly(text))).coeffs == parse_poly(text).coeffs


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial((1, 2, 0, 0))
        assert p.coeffs == (1, 2)
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = Polynomial((0, 0))
        assert p.is_zero and p.degree == -1

    def test_direct_evaluation_oracle(self):
        # the oracle's Horner evaluation of p: |p(1)|^2 = |2 + i|^2
        assert direct_mod2(Polynomial((1, 0, 1, 1j)), 1.0, 0.0) == 5.0


class TestNormalize:
    def test_monomial(self):
        with pytest.raises(MonomialAllPlaneError, match="whole plane"):
            normalize(Polynomial((0, 0, 3)))

    def test_normal_form_returned_unchanged(self):
        h = normalize(Polynomial((2, 0, 2, 2j), truncated=True))
        assert normalize(h) is h and h.tail.truncated

    def test_scalar_division(self):
        h = normalize(Polynomial((2, 0, 2, 2j)))
        assert isinstance(h, HaymanForm)
        assert h.prefactor_scalar == 2 and h.prefactor_power == 0
        assert h.k == 2 and h.a == 1
        assert h.tail.coeffs == (1, 0, 1, 1j)

    def test_monomial_factor_out(self):
        h = normalize(Polynomial((0, 0, 1, 0, 1, 1j)))
        assert h.prefactor_power == 2 and h.k == 2
        assert h.tail.coeffs == (1, 0, 1, 1j)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            normalize(Polynomial(()))

    @pytest.mark.parametrize("coeffs", [(1e-300, 1e200), (1e200, 0, 1e-300), (1e308, 1e-300, 1)])
    def test_ratio_out_of_float_range_rejected(self, coeffs):
        # a = 1e500 overflows; 1e-500 underflows to 0 and would drop the term
        with pytest.raises(CoefficientRangeError):
            normalize(Polynomial(coeffs))

    def test_huge_complex_lead(self):
        # |1e308+1e308i|^2 overflows inside complex division, which then
        # returns -0j; the ratios are divided after an exact power-of-two
        # scaling, and expand divides by the same helper, without a warning
        h = normalize(Polynomial((1e308 + 1e308j, 1e308, 1)))
        assert h.tail.coeffs[1] == 0.5 - 0.5j
        p = Polynomial((1.5e308 + 1.5e308j, 1))
        e = expand(p)
        assert e.c.tolist() == list(normalize(p).tail.coeffs)

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(), st.integers(-1000, 1000))
    def test_scaled_division_keeps_its_bits(self, p, s):
        # on normal floats the scaling is exact: the ratios are those of
        # plain complex division, and those of 2^s p
        h = normalize(p)
        c = p.coeffs[h.prefactor_power]
        assert h.tail.coeffs[1:] == tuple(a / c + 0j for a in p.coeffs[h.prefactor_power + 1 :])
        scaled = (complex(math.ldexp(a.real, s), math.ldexp(a.imag, s)) for a in p.coeffs)
        assert normalize(Polynomial(tuple(scaled))).tail == h.tail

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy())
    def test_reconstruction_identity(self, p):
        h = normalize(p)
        m = h.prefactor_power
        for i, c in enumerate(p.coeffs):
            if i < m:
                assert c == 0
            else:
                back = h.prefactor_scalar * h.tail.coeffs[i - m]
                assert cmath.isclose(back, c, rel_tol=4 * np.finfo(float).eps, abs_tol=0)

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy())
    def test_tail_invariants(self, p):
        h = normalize(p)
        assert h.tail.coeffs[0] == 1
        assert h.tail.coeffs[h.k] == h.a != 0
        assert all(h.tail.coeffs[i] == 0 for i in range(1, h.k))

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy())
    def test_canonical_tail(self, p):
        # no -0.0 part, whatever the sign of p, and the tail normalizes to
        # itself bit for bit
        def bits(q):
            return [(math.copysign(1, c.real), c.real, math.copysign(1, c.imag), c.imag) for c in q]

        for q in (p, Polynomial(tuple(-c for c in p.coeffs))):
            tail = normalize(q).tail.coeffs
            assert all(math.copysign(1, x) > 0 for c in tail for x in (c.real, c.imag) if x == 0)
            assert bits(normalize(Polynomial(tail)).tail.coeffs) == bits(tail)

    @pytest.mark.parametrize("coeffs", [(1, 0, -1), (2, 0, 0, -1), (1, -0.5, 0, 1j)])
    def test_sign_flip_gives_same_tail(self, coeffs):
        # complex division by a negative real leaves -0.0 imaginary parts,
        # which atan2 would read as angles of the opposite sign
        a = normalize(Polynomial(tuple(complex(c) for c in coeffs))).tail.coeffs
        b = normalize(Polynomial(tuple(-complex(c) for c in coeffs))).tail.coeffs
        assert [(c.real, math.copysign(1, c.imag)) for c in a] == [
            (c.real, math.copysign(1, c.imag)) for c in b
        ]


class TestCachedFacts:
    """``HaymanForm.omega`` and ``HaymanForm.floor`` are kept on the form
    once read, and the form stays a frozen value."""

    def test_a_read_form_is_still_its_value(self):
        p = parse_poly("2,0,1,1i,0.5")
        h = normalize(p)
        omega, floor = h.omega, h.floor
        assert h.omega is omega and h.floor == floor
        fresh = normalize(p)
        assert h == fresh and hash(h) == hash(fresh)
        back = pickle.loads(pickle.dumps(h))
        assert back == h and hash(back) == hash(h)
        assert back.omega == omega and back.floor == floor
        for name, value in (("k", 3), ("omega", ()), ("floor", 1.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(h, name, value)
        assert h.omega is omega

    @pytest.mark.parametrize("owner,name", [(HaymanForm, "omega"), (HaymanForm, "floor"), (TraceResult, "samples")])
    def test_one_descriptor(self, owner, name):
        # the names of functools.cached_property, which tests wrap
        d = vars(owner)[name]
        assert type(d) is cached_attribute
        assert d.attrname == name and d.func.__name__ == name


class TestInnerDegree:
    @pytest.mark.parametrize(
        "coeffs,mu",
        [
            ((1, 0, 1, 1j), 1),
            ((1, 0, 0, 0, 1, 0, 1), 2),
            ((1, 0, 0, 0, 2j), 4),
        ],
    )
    def test_examples(self, coeffs, mu):
        assert normalize(Polynomial(coeffs)).mu == mu

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy())
    def test_divides_all_exponents(self, p):
        h = normalize(p)
        mu = h.mu
        assert h.k % mu == 0
        for e in h.tail.nonzero_exponents():
            if e > 0:
                assert e % mu == 0


def core(h: HaymanForm) -> tuple[int, Polynomial]:
    """The core degree N and the core polynomial, the tail up to z^N."""
    return h.N, Polynomial(h.tail.coeffs[: h.N + 1])


class TestCorePolynomial:
    def test_whole_cubic(self):
        n, core_p = core(normalize(Polynomial((1, 0, 1, 1j))))
        assert n == 3 and core_p.coeffs == (1, 0, 1, 1j)

    def test_two_term(self):
        n, core_p = core(normalize(Polynomial((1, 0, 0, 5))))
        assert n == 3 and core_p.coeffs == (1, 0, 0, 5)

    def test_prefix_scan(self):
        # gcd(4)=4, gcd(4,6)=2, gcd(4,6,7)=1 = inner degree
        p = Polynomial((1, 0, 0, 0, 1, 0, 1, 1, 0, 1))
        n, core_p = core(normalize(p))
        assert n == 7
        assert core_p.coeffs == (1, 0, 0, 0, 1, 0, 1, 1)

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy())
    def test_minimality_of_n(self, p):
        h = normalize(p)
        mu = h.mu
        n, core_p = core(h)
        assert normalize(core_p).mu == mu
        for n_prime in range(h.k, n):
            exps = [e for e in h.tail.nonzero_exponents() if 0 < e <= n_prime]
            assert math.gcd(*exps) > mu


class TestReciprocal:
    def test_examples(self):
        assert reciprocal(Polynomial((1, 0, 1, 1j))).coeffs == (1j, 1, 0, 1)
        assert reciprocal(Polynomial((1, 0, 0, 5))).coeffs == (5, 0, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            reciprocal(Polynomial(()))

    @settings(max_examples=60, deadline=None)
    @given(poly_strategy().filter(lambda p: p.coeffs[0] != 0))
    def test_involution(self, p):
        assert reciprocal(reciprocal(p)).coeffs == p.coeffs


class TestTruncatedFlag:
    def test_flag_propagates_through_normalize_and_core(self):
        p = Polynomial((1, 0, 1, 1j, 0.5), truncated=True)
        # the core is the tail's prefix; classify reads its degree from h
        h = normalize(p)
        assert h.tail.truncated
        c = classify(p)
        assert c.N == h.N == 3 and any("core degree" in w for w in c.warnings)

    def test_reciprocal_refuses_truncations(self):
        from maxmod import TruncatedSeriesError

        with pytest.raises(TruncatedSeriesError):
            reciprocal(Polynomial((1, 0, 1), truncated=True))

    def test_json_reads_flag(self):
        p = poly_from_json({"coeffs": [[1, 0], [0, 0], [1, 0]], "truncated": True})
        assert p.truncated

    def test_json_flag_is_a_boolean(self):
        # a missing flag is false; anything but a JSON boolean is an error,
        # where "false" once marked a series as truncated
        coeffs = [[1, 0], [0, 0], [1, 0]]
        assert not poly_from_json({"coeffs": coeffs}).truncated
        assert not poly_from_json({"coeffs": coeffs, "truncated": False}).truncated
        for flag in ("false", "true", 0, 1, [1], None):
            with pytest.raises(PolyParseError, match='"truncated" flag'):
                poly_from_json({"coeffs": coeffs, "truncated": flag})
