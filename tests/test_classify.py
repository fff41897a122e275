import cmath
import dataclasses
import json
import math
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxmod import (
    Classification,
    ExceptionalWitness,
    HaymanForm,
    MonomialAllPlaneError,
    Polynomial,
    TraceConfig,
    classify,
    normalize,
    parse_poly,
    trace,
)
from maxmod.classify import MAGIC, NOT_MAGIC, UNKNOWN
from maxmod.util import canonical_json, circ_dist, reduce_angle

from oracles import cubic_magic, predict_J

# Two cubics within float rounding of the 1e-9 edge, where the closed form
# Re(b a^{-3/2}) = 0 and the resonance residual round to opposite sides:
# classify, which reads magic off the resonance, is not exceptional and not
# magic on the first, and both on the second.
EDGE_CUBICS = (
    "1,0,0.52+1.628i,-0.9487162793135887-0.31612880502317525i",
    "1,0,1.149+0.677i,0.7164285760637021-0.697660444198563i",
)
# a cubic prefix on the resonance, whose quartic continuation traces to one
# curve (from hunt --family quartic --seed 99)
MAGIC_PREFIX = "1,0,-0.8300660225374361+1.2693990778175988i,-0.04656710453432083+0.5579051013880815i"
CONTINUATION = MAGIC_PREFIX + ",-0.6791154105070409+0.5975263901720731i"


def unit_arg():
    return st.floats(-math.pi, math.pi, allow_nan=False)


def polar(rho, phi):
    return rho * cmath.exp(1j * phi)


class TestOmegaAngles:
    """The candidate angles ``HaymanForm.omega``."""

    def test_a1_k2(self):
        w = normalize(parse_poly("1,0,1")).omega
        assert np.allclose(w, [0.0, math.pi], atol=0)

    def test_ai_k1(self):
        w = normalize(parse_poly("1,1i")).omega
        assert np.allclose(w, [-math.pi / 2])

    def test_aneg_k2(self):
        w = normalize(parse_poly("1,0,-1")).omega
        assert np.allclose(w, [-math.pi / 2, math.pi / 2])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 9), st.floats(0.5, 2), unit_arg())
    def test_spacing_and_range(self, k, rho, phi):
        coeffs = [1.0 + 0j] + [0j] * (k - 1) + [polar(rho, phi)]
        w = np.array(normalize(Polynomial(tuple(coeffs))).omega)
        assert len(w) == k
        assert np.all(w > -math.pi) and np.all(w <= math.pi)
        raw = (2 * np.arange(k) * math.pi - cmath.phase(polar(rho, phi))) / k
        assert np.allclose(np.diff(raw), 2 * math.pi / k)
        assert np.allclose(circ_dist(w, raw), 0.0, atol=1e-12)

    @pytest.mark.parametrize("k", range(1, 41))
    def test_bits_of_the_array_formula(self, k):
        # the angles are folded on Python floats, yet carry the bits of the
        # array formula reduce_angle((2 pi j - arg a)/k) over an array of j
        rng = np.random.default_rng(k)
        leads = [1, -1, 1j, -1j] + [polar(rng.uniform(0.1, 10), rng.uniform(-4, 4)) for _ in range(3)]
        for a in leads:
            h = normalize(Polynomial((1,) + (0,) * (k - 1) + (a,)))
            j = np.arange(k, dtype=float)
            want = np.atleast_1d(reduce_angle((2.0 * j * math.pi - cmath.phase(h.a)) / k))
            w = h.omega
            assert type(w) is tuple and all(type(x) is float for x in w)
            assert np.array(w).tobytes() == want.tobytes()
            assert h.omega is w  # computed once per form
            omega = classify(h.tail).omega
            assert omega == w
            assert np.array(omega).tobytes() == want.tobytes()


class TestExceptional:
    def test_magic_cubic_witness(self):
        c = classify(parse_poly("1,0,1,1i"))
        flag, wits = c.exceptional, c.witnesses
        assert flag
        assert [(w.m, w.m_prime, w.sigma) for w in wits] == [(1, 2, 3)]
        assert wits[0].residual <= 1e-9

    def test_real_cubic_not_exceptional(self):
        # m' = 3/2 is not an integer
        c = classify(parse_poly("1,0,1,1"))
        flag, wits = c.exceptional, c.witnesses
        assert not flag and wits == ()

    def test_two_term_never_exceptional(self):
        for text in ("1,0,3i", "1,0,0,0,-2"):
            assert not classify(parse_poly(text)).exceptional

    def test_k1_never_exceptional(self):
        assert not classify(parse_poly("1,2,3i,0.1,5")).exceptional

    def test_even_pair_resonates(self):
        # 1 + z^4 + z^6: m pi = (k/sigma)(m' pi - arg b) + arg a holds at
        # (m, m', sigma) = (2, 3, 6), so the resonance test fires even
        # though the survivor set is untouched (the tied candidates share a
        # residue class).
        c = classify(parse_poly("1,0,0,0,1,0,1"))
        flag, wits = c.exceptional, c.witnesses
        assert flag
        assert (2, 3, 6) in [(w.m, w.m_prime, w.sigma) for w in wits]

    def test_near_exceptional_warning(self):
        b = cmath.exp(1j * (math.pi / 2 + 3e-8))
        c = classify(Polynomial((1, 0, 1, b)))
        assert not c.exceptional
        (w,) = [w for w in c.warnings if "near-exceptional" in w]
        # 3e-8 rad off the locus, stated in units of pi as the last field
        assert "in units of pi" in w
        assert float(w.split("residual=")[1]) == pytest.approx(3e-8 / math.pi, rel=1e-3)


def magic_of(text: str) -> str:
    """The closed form's verdict on a quadratic or cubic, after checking
    that classify, which reads magic off its resonance scan, agrees."""
    h = normalize(parse_poly(text))
    want = cubic_magic(h)
    assert classify(h).magic == want, text
    return want


class TestCubicMagic:
    """The oracle ``cubic_magic`` of tests/oracles.py, the paper's closed
    form, against ``classify``."""

    def test_magic(self):
        assert magic_of("1,0,1,1i") == MAGIC

    def test_perturbed_not_magic(self):
        assert magic_of("1,0,1,0.001+1i") == NOT_MAGIC

    def test_real_not_magic(self):
        assert magic_of("1,0,1,1") == NOT_MAGIC

    def test_tiny_a_does_not_overflow(self):
        # a = 1e-308, so a^(-3/2) is not a float; only the phase of b a^(-3/2) matters
        assert magic_of("1e300,0,1e-8,1e200i") == MAGIC
        assert magic_of("1e300,0,1e-8,1e200") == NOT_MAGIC

    def test_quadratic_never_magic(self):
        assert magic_of("1,0.5i,2") == NOT_MAGIC
        assert magic_of("1,0,2i") == NOT_MAGIC

    def test_k1_k3_cubics_not_magic(self):
        assert magic_of("1,1,0,1") == NOT_MAGIC
        assert magic_of("1,0,0,1") == NOT_MAGIC

    def test_outside_family(self):
        # the closed form has no verdict on a quartic; classify has none
        # either where the quartic resonates
        with pytest.raises(ValueError):
            cubic_magic(normalize(parse_poly("1,0,1,1i,1")))
        c = classify(parse_poly("1,0,1,1i,1"))
        assert c.exceptional and c.magic == UNKNOWN and c.conjecture_count is None

    @pytest.mark.parametrize("branch", [0, 1, None], ids=["branch-0", "branch-1", "off-locus"])
    def test_seeded_cubics_agree(self, branch):
        # 1 + a z^2 + b z^3 on either branch arg b = 3/2 arg a + pi/2 + m' pi
        # of the locus, or with b of any phase, and seeded cubics with
        # k in {1, 3} and quadratics
        rng = np.random.default_rng(20261020 + (3 if branch is None else branch))
        magic = 0
        for _ in range(300):
            rho_a, phi_a, rho_b = rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 2.0)
            if branch is None:
                phi_b = rng.uniform(-math.pi, math.pi)
            else:
                phi_b = 1.5 * phi_a + math.pi / 2 + (branch + 2 * int(rng.integers(-1, 2))) * math.pi
            a, b = polar(rho_a, phi_a), polar(rho_b, phi_b)
            for coeffs in ((1, 0, a, b), (1, a, 0, b), (1, a, b, 0), (1, 0, 0, b), (1, a, b)):
                h = normalize(Polynomial(coeffs))
                want = cubic_magic(h)
                assert classify(h).magic == want, coeffs
                magic += want == MAGIC
        assert magic == (0 if branch is None else 300)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.5, 2), unit_arg(), st.floats(0.5, 2), st.integers(0, 3))
    def test_branch_independence_on_locus(self, rho_a, phi_a, rho_b, m_prime):
        # both square roots of a negate b a^{-3/2}; the verdict must agree
        a = polar(rho_a, phi_a)
        phi_b = 1.5 * phi_a + math.pi / 2 + m_prime * math.pi
        b = polar(rho_b, phi_b)
        h = normalize(Polynomial((1, 0, a, b)))
        assert cubic_magic(h) == MAGIC and classify(h).magic == MAGIC
        b1 = b * a**-1.5
        b2 = b * (-(a**-1.5))
        assert (abs(b1.real) <= 1e-9 * abs(b1)) == (abs(b2.real) <= 1e-9 * abs(b2))

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.5, 2), unit_arg(), st.floats(0.5, 2), unit_arg())
    # 1.76e-9 rad off the locus: a residual of 5.6e-10 in units of pi, which
    # once passed the 1e-9 bound that the closed form applies in radians
    @example(rho_a=1, phi_a=math.pi, rho_b=1, phi_b=1.7590592262406134e-09)
    def test_exceptional_matches_closed_form(self, rho_a, phi_a, rho_b, phi_b):
        a, b = polar(rho_a, phi_a), polar(rho_b, phi_b)
        flag = classify(Polynomial((1, 0, a, b))).exceptional
        b_prime = b * a**-1.5
        assert flag == (abs(b_prime.real) <= 1e-9 * abs(b_prime))


class TestMagicIsResonance:
    """Below degree 4, classify's magic is its resonance test."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0j), st.builds(polar, st.floats(1e-3, 1e3), unit_arg())),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
    )
    @example(tail=[0j, complex(1, 0), complex(0, 1)], on_locus=False)
    def test_magic_iff_exceptional(self, tail, on_locus):
        # any polynomial tail 1 + a_1 z + a_2 z^2 + a_3 z^3; on_locus turns
        # a_3 of 1 + a z^2 + b z^3 onto the resonance
        if on_locus and len(tail) == 3 and tail[0] == 0 and tail[1] != 0 and tail[2] != 0:
            phi_b = 1.5 * cmath.phase(tail[1]) + math.pi / 2
            tail = [0j, tail[1], polar(abs(tail[2]), phi_b)]
        if not any(tail):
            return  # a monomial
        c = classify(Polynomial((1,) + tuple(tail)))
        assert (c.magic == MAGIC) == c.exceptional
        assert c.magic != UNKNOWN
        assert c.conjecture_count == (2 * c.mu if c.exceptional else None)

    @pytest.mark.parametrize("text", EDGE_CUBICS, ids=["not-exceptional", "exceptional"])
    def test_edge_of_the_tolerance(self, text):
        # the closed form rounds to the other side here; classify's verdict
        # follows its resonance test alone
        c = classify(parse_poly(text))
        assert (c.magic == MAGIC) == c.exceptional == (text == EDGE_CUBICS[1])
        assert c.conjecture_count == (2 if c.exceptional else None)
        assert (cubic_magic(normalize(parse_poly(text))) == MAGIC) != c.exceptional


class TestPredictJ:
    def test_two_term_full_set(self):
        p = parse_poly("1,0,0,2i")
        pj = predict_J(normalize(p))
        assert pj.j_set == (0, 1, 2) and not classify(p).exceptional
        assert pj.t_history == ()

    def test_real_cubic_single_survivor(self):
        # t_0 = 2 cos 0 = 2, t_1 = 2 cos(3 pi) = -2
        p = parse_poly("1,0,1,1")
        pj = predict_J(normalize(p))
        assert pj.j_set == (0,) and not classify(p).exceptional
        (tf,) = pj.t_history
        assert tf.n == 3
        t = dict(tf.t_values)
        assert math.isclose(t[0], 2.0, abs_tol=1e-12)
        assert math.isclose(t[1], -2.0, abs_tol=1e-12)

    def test_magic_tie_kept(self):
        p = parse_poly("1,0,1,1i")
        pj = predict_J(normalize(p))
        assert pj.j_set == (0, 1) and classify(p).exceptional

    def test_even_sextic(self):
        pj = predict_J(normalize(parse_poly("1,0,0,0,1,0,1")))
        assert pj.j_set == (0, 2)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 5),
        st.lists(st.tuples(st.floats(0.5, 2), unit_arg()), min_size=1, max_size=4),
    )
    def test_proven_is_residue_class(self, k, gap, terms):
        coeffs = [0j] * (k + len(terms) * gap + 1)
        coeffs[0] = 1.0
        coeffs[k] = polar(1.0, 0.3)
        n = k
        for rho, phi in terms:
            n += gap
            coeffs[n] = polar(rho, phi)
        p = Polynomial(tuple(coeffs))
        c = classify(p)
        if c.exceptional:
            return  # recursion only proven for non-exceptional inputs
        pj = predict_J(normalize(p))
        mu = c.mu
        assert len(pj.j_set) == mu
        step = k // mu
        assert set(pj.j_set) == {pj.j_set[0] + i * step for i in range(mu)}

    def test_corpus_survivors_are_one_residue_class(self):
        # the oracle of classify's proven count: on every non-exceptional
        # input of the trace corpus, mu > 1 included, the survivor set is
        # one residue class mod k/mu with mu elements
        corpus = json.loads((Path(__file__).with_name("corpus.json")).read_text(encoding="utf-8"))
        forms = [normalize(Polynomial(tuple(complex(*z) for z in e["coeffs"]))) for e in corpus]
        forms = [h for h in forms if not classify(h).exceptional]
        assert len(forms) == 291 and sum(h.mu > 1 for h in forms) == 16
        for h in forms:
            j_set = predict_J(h).j_set
            step = h.k // h.mu
            assert len(j_set) == h.mu, h.tail
            assert set(j_set) == set(range(min(j_set), h.k, step)), h.tail


class TestClassify:
    def test_magic_cubic(self):
        c = classify(parse_poly("1,0,1,1i"))
        assert (c.mu, c.N, c.exceptional, c.magic) == (1, 3, True, MAGIC)
        assert c.predicted_count == (1, 2)
        assert c.conjecture_count == 2

    def test_perturbed_cubic(self):
        c = classify(parse_poly("1,0,1,0.001+1i"))
        assert (c.mu, c.exceptional, c.magic) == (1, False, NOT_MAGIC)
        assert c.predicted_count == 1 and c.conjecture_count is None

    def test_even_sextic(self):
        c = classify(parse_poly("1,0,0,0,1,0,1"))
        assert c.mu == 2 and c.magic == UNKNOWN
        assert c.predicted_count == (2, 4)

    def test_monomial_rejected(self):
        with pytest.raises(MonomialAllPlaneError):
            classify(parse_poly("0,0,3"))

    def test_magic_implies_exceptional(self):
        for text in ("1,0,1,1i", "1,0,-1,2i", "1,0,1i,1"):
            c = classify(parse_poly(text))
            if c.magic == MAGIC:
                assert c.exceptional

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-3, 3), st.integers(0, 3), st.sampled_from([1, 2, 4, 8, 16]))
    def test_scaling_invariance_exact(self, sign_pow, m, scale):
        # c z^m p(z) classifies identically; powers of two keep the
        # division exact so all fields match bit for bit
        p = parse_poly("1,0,1,1i")
        c_ref = classify(p)
        c = scale * (1j**sign_pow)
        shifted = Polynomial((0j,) * m + tuple(c * z for z in p.coeffs))
        c_new = classify(shifted)
        assert c_new.to_json_dict() == c_ref.to_json_dict()

    @settings(max_examples=40, deadline=None)
    @given(unit_arg())
    def test_rotation_covariance(self, phi):
        lam = cmath.exp(1j * phi)
        p = parse_poly("1,0,1,1i")
        rotated = Polynomial(tuple(c * lam**i for i, c in enumerate(p.coeffs)))
        c_ref = classify(p)
        c_rot = classify(rotated)
        assert c_rot.exceptional == c_ref.exceptional
        assert c_rot.magic == c_ref.magic
        assert c_rot.mu == c_ref.mu
        # the angle set shifts rigidly by -arg(lambda)
        for w_rot in c_rot.omega:
            assert min(circ_dist(w_rot, w - phi) for w in c_ref.omega) < 1e-9

    def test_json_round_trip_bytes(self):
        c = classify(parse_poly("1,0,1,1i"))
        text = canonical_json(c.to_json_dict())
        again = canonical_json(json.loads(text))
        assert text == again


class TestTruncatedClassification:
    def test_classifies_with_warning(self):
        # the resonance of a truncated magic cubic stays a fact of the
        # series; its magic does not, so the verdict is UNKNOWN
        p = Polynomial((1, 0, 1, 1j), truncated=True)
        c = classify(p)
        assert c.mu == 1 and c.exceptional and c.magic == UNKNOWN
        assert c.conjecture_count is None
        assert any("truncated" in w for w in c.warnings)

    def test_exceptional_prefix_is_unknown(self):
        # a magic cubic as a polynomial, UNKNOWN as the prefix of a series:
        # its quartic continuation resonates the same way, yet traces to one
        # curve, not two
        cubic = classify(parse_poly(MAGIC_PREFIX))
        series = classify(Polynomial(parse_poly(MAGIC_PREFIX).coeffs, truncated=True))
        quartic = classify(parse_poly(CONTINUATION))
        assert (cubic.magic, cubic.conjecture_count) == (MAGIC, 2)
        assert (series.magic, series.conjecture_count) == (UNKNOWN, None)
        assert series.witnesses == quartic.witnesses == cubic.witnesses
        assert quartic.magic == UNKNOWN
        cfg = TraceConfig(r_min=2e-4, r_max=0.3, n_radii=200)
        assert trace(parse_poly(CONTINUATION), cfg).n_components == 1

    def test_non_exceptional_prefix_is_not_magic(self):
        c = classify(Polynomial((1, 0, 1, 1), truncated=True))
        assert not c.exceptional and c.magic == NOT_MAGIC


class TestCoefficientFactsOnce:
    @staticmethod
    def count_calls(monkeypatch, poly):
        """Classify ``poly`` and count the resonance scans and exponent
        walks it makes; a survivor recursion walks the exponents of the
        tail, so the walks bound the recursions too."""
        module = sys.modules["maxmod.classify"]
        calls = {"_exceptional_scan": 0, "nonzero_exponents": 0}
        scan = module._exceptional_scan

        def counted_scan(*args):
            calls["_exceptional_scan"] += 1
            return scan(*args)

        monkeypatch.setattr(module, "_exceptional_scan", counted_scan)
        exponents = Polynomial.nonzero_exponents

        def counted_exponents(self):
            calls["nonzero_exponents"] += 1
            return exponents(self)

        monkeypatch.setattr(Polynomial, "nonzero_exponents", counted_exponents)
        return classify(parse_poly(poly)), calls

    def test_one_scan_per_classify(self, monkeypatch):
        # normalize derives mu and N; classify runs the resonance scan once
        # and, on an exceptional input, whose report does not read the
        # survivors, no survivor recursion
        c, calls = self.count_calls(monkeypatch, "1,0,1,1i,0,2,0,0.5,1")
        assert c.exceptional and (c.mu, c.N) == (1, 3)
        assert calls["_exceptional_scan"] == 1
        assert calls["nonzero_exponents"] == 1

    def test_no_recursion_when_not_exceptional(self, monkeypatch):
        # the count of a non-exceptional input is mu, proven: no recursion
        # runs, and the exponents are walked once, in normalize.  The
        # recursion's residue class is checked by
        # TestPredictJ.test_corpus_survivors_are_one_residue_class
        c, calls = self.count_calls(monkeypatch, "1,0,1,1,0,2,0,0.5,1")
        assert not c.exceptional and (c.mu, c.N) == (1, 3)
        assert calls["_exceptional_scan"] == 1
        assert calls["nonzero_exponents"] == 1


class TestBuiltInOneWrite:
    """``normalize`` builds the form and its tail, ``classify`` the report
    and its witnesses, with one write of their fields
    (``util.frozen_instance``), not by the generated constructors.  Over
    every input of the classify corpus that classifies, each is the value
    the constructor builds from the same fields, and each holds exactly
    its dataclass fields, so a field added to a class but not where the
    package builds it fails here."""

    CORPUS = json.loads(Path(__file__).with_name("classify_corpus.json").read_text(encoding="utf-8"))

    @staticmethod
    def check_value(x):
        names = [f.name for f in dataclasses.fields(x)]
        assert vars(x).keys() == set(names)  # no cached attribute read yet
        y = type(x)(**vars(x))  # the generated constructor, with its checks
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert pickle.loads(pickle.dumps(x)) == x
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, names[0], getattr(x, names[0]))

    def test_values_equal_the_constructors(self):
        inputs = [e for e in self.CORPUS if isinstance(e["expect"], str)]
        assert len(inputs) >= 400
        witnessed = 0
        for e in inputs:
            p = Polynomial(tuple(complex(re, im) for re, im in e["coeffs"]), truncated=e["truncated"])
            h = normalize(p)
            assert type(h) is HaymanForm and type(h.tail) is Polynomial
            self.check_value(h.tail)
            assert all(type(z) is complex for z in h.tail.coeffs) and h.tail.coeffs[-1] != 0
            self.check_value(h)
            c = classify(h)
            assert type(c) is Classification
            self.check_value(c)
            for w in c.witnesses:
                assert type(w) is ExceptionalWitness
                self.check_value(w)
            witnessed += bool(c.witnesses)
        assert witnessed >= 50
