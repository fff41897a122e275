"""Polynomial representation and reduction to the canonical near-origin form.

A polynomial is a finite sequence of complex coefficients in ascending degree
order.  Every analysis in this package starts by factoring out the leading
monomial ``c * z^m`` (which does not change the maximum modulus set) to reach
the canonical form ``1 + a z^k + higher order terms``.
"""

from __future__ import annotations

import cmath
import itertools
import math
import re
import reprlib
from dataclasses import dataclass

from .errors import (
    CoefficientRangeError,
    MonomialAllPlaneError,
    PolyParseError,
    TruncatedSeriesError,
    ZeroPolynomialError,
)
from .util import EPS, TWO_PI, cached_attribute, frozen_instance


@dataclass(frozen=True)
class Polynomial:
    """Dense complex polynomial; ``coeffs[i]`` is the coefficient of ``z^i``.

    Trailing zeros are trimmed on construction, so the last coefficient is
    nonzero unless the polynomial is zero (empty tuple).  Only exact zeros are
    trimmed: the classification below is discontinuous in "coefficient = 0",
    so tiny coefficients are taken at face value.

    ``truncated`` marks the sequence as the initial part of a longer Taylor
    series.  Classification works on such inputs (exactly, provided the
    omitted terms sit above the core degree, and leaving the magic of an
    exceptional series UNKNOWN) but tracing refuses them.
    """

    coeffs: tuple[complex, ...]
    truncated: bool = False

    def __post_init__(self):
        cs = tuple(map(complex, self.coeffs))
        end = len(cs)
        while end > 0 and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def nonzero_exponents(self) -> tuple[int, ...]:
        return tuple([i for i, c in enumerate(self.coeffs) if c != 0])


@dataclass(frozen=True)
class HaymanForm:
    """Factored form ``prefactor_scalar * z^prefactor_power * tail`` where
    ``tail = 1 + a z^k + ...`` with ``a != 0`` and ``k >= 1``.

    ``mu`` is the inner degree, the gcd of the positive exponents that carry
    a nonzero tail coefficient.  ``N`` is the core degree, the least such
    exponent up to which their gcd is already ``mu``; the tail up to
    ``z^N`` is the core polynomial.  ``tail.truncated`` is that of the
    input.  This is the one value per input that ``classify``, ``trace``
    and ``count_components`` read; each takes it in place of a polynomial.
    Its candidate angles :attr:`omega` and its :attr:`floor` are computed
    on first read and kept in the instance ``__dict__``
    (:class:`~maxmod.util.cached_attribute`): equality, hashing and
    pickling still see the fields above, and the form stays frozen.
    :func:`normalize` builds the form and its tail with one write of their
    fields (:func:`~maxmod.util.frozen_instance`), since it has checked
    what the generated constructors would: the tail's ratios are complex
    and its last one is nonzero, or it raises.  A form built by the
    constructor is the same value.
    """

    prefactor_scalar: complex
    prefactor_power: int
    k: int
    a: complex
    mu: int
    N: int
    tail: Polynomial

    @cached_attribute
    def omega(self) -> tuple[float, ...]:
        """The k candidate tangent angles ``(2 j pi - arg a)/k``, j = 0..k-1,
        reduced to (-pi, pi]: ``classify`` reports them, the survivor
        recursion weighs them and a trace matches its tangents to them.

        Each angle is formed on Python floats with the operations, in their
        order, of the array formula over ``j = 0, ..., k-1``, and folded in
        place by :func:`~maxmod.util.reduce_angle`'s rule.  ``arg a`` lies
        in [-pi, pi] and j <= k - 1, so the unfolded angle lies in
        [-pi, 2 pi), rounding included (its bound ``(2 - 1/k) pi (1 + 2
        eps)`` stays below 2 pi for any k below 2^50).  There ``fmod`` by 2
        pi returns the angle itself, and the fold is one comparison: -2 pi
        above pi, +2 pi at -pi or below (only k = 1 with a negative real a
        gets there), none otherwise.  So the angles are the array
        formula's bits, the sign of a zero included.
        """
        arg_a, k, pi = cmath.phase(self.a), self.k, math.pi
        angles = [(2.0 * j * pi - arg_a) / k for j in range(k)]
        return tuple([t - TWO_PI if t > pi else t - -TWO_PI if t <= -pi else t for t in angles])

    @cached_attribute
    def floor(self) -> float:
        """:func:`floor_radius` of the form, computed on first read and kept
        with it: a hunt reads it for a member's radius and again when the
        member's count checks that radius."""
        return floor_radius(self)


def floor_radius(h: HaymanForm) -> float:
    """Smallest radius at which the angular signal dominates roundoff.

    The theta-dependent signal scales like ``2|a| r^k`` while evaluation
    noise scales with the square of the coefficient mass, hence the floor
    ``2|a| r^k >= 1e6 * eps * (sum |a_l|)^2``.  The mass is scaled by its
    largest modulus so that no intermediate overflows; a floor beyond the
    float range is ``inf``.
    """
    mags = [abs(c) for c in h.tail.coeffs]
    big = max(mags)
    mass = sum(m / big for m in mags)
    return float((1e6 * EPS * mass * mass / 2.0 * (big / abs(h.a)) * big) ** (1.0 / h.k))


def normalize(p: Polynomial | HaymanForm) -> HaymanForm:
    """Factor out ``c * z^m`` so the remaining tail starts ``1 + a z^k + ...``,
    and record the tail's inner degree ``mu`` and core degree ``N`` from one
    walk over its nonzero exponents.  A :class:`HaymanForm` is returned
    unchanged, so a caller that has normalized once passes the form on.

    Raises :class:`MonomialAllPlaneError` when ``p`` has a single nonzero
    term, :class:`ZeroPolynomialError` on the zero polynomial and
    :class:`CoefficientRangeError` when a nonzero coefficient divided by
    ``c`` is not a finite nonzero float.
    """
    if isinstance(p, HaymanForm):
        return p
    coeffs = p.coeffs
    if not coeffs:
        raise ZeroPolynomialError("cannot normalize the zero polynomial")
    nz = p.nonzero_exponents()
    if len(nz) == 1:
        raise MonomialAllPlaneError("the maximum modulus set of a monomial is the whole plane")
    m = nz[0]
    c = coeffs[m]
    ratios = lead_ratios(coeffs[m + 1 :], c)
    # every nonzero coefficient must stay a finite nonzero ratio
    if len(ratios) - ratios.count(0j) != len(nz) - 1 or not all(map(cmath.isfinite, ratios)):
        raise CoefficientRangeError(
            f"a coefficient divided by coefficient {m} ({c!r}) is not a finite "
            "nonzero float"
        )
    # the leading tail coefficient is analytically 1; complex division c/c
    # rounds, so set it exactly.  The ratios are complex and the last one is
    # nonzero (p's last coefficient is), so the tail needs no conversion or
    # trimming from Polynomial.__post_init__.
    tail = frozen_instance(Polynomial, coeffs=(1.0 + 0j,) + ratios, truncated=p.truncated)
    exps = [e - m for e in nz[1:]]  # the tail's positive exponents
    gcds = list(itertools.accumulate(exps, math.gcd))
    k, mu = exps[0], gcds[-1]
    return frozen_instance(
        HaymanForm,
        prefactor_scalar=c,
        prefactor_power=m,
        k=k,
        a=ratios[k - 1],
        mu=mu,
        N=exps[gcds.index(mu)],
        tail=tail,
    )


def frexp_complex(z: complex) -> tuple[complex, int]:
    """``(w, e)`` with ``z = w 2^e`` exactly and the larger component of ``w``
    in [1, 2) for a normal z."""
    e = max(math.frexp(max(abs(z.real), abs(z.imag)))[1] - 1, -1022)
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), e


def lead_ratios(coeffs, lead: complex) -> tuple[complex, ...]:
    """``c / lead`` per ``c`` of ``coeffs``: complex division after scaling
    both by the power of two of :func:`frexp_complex` (none for a lead in
    [1, 2)), exact for normal floats, so ``|lead|^2`` cannot overflow inside
    it.  ``+ 0j`` turns a -0.0 part, which the division leaves for instance
    when ``lead`` is a negative real, into +0.0: a sign-flipped p and the
    tail itself then normalize to the same bits."""
    if not 1.0 <= max(abs(lead.real), abs(lead.imag)) < 2.0:  # there e would be 0
        lead, e = frexp_complex(lead)
        s = math.ldexp(1.0, -e)
        coeffs = [complex(c.real * s, c.imag * s) for c in coeffs]
    return tuple([c / lead + 0j for c in coeffs])


def reciprocal(p: Polynomial) -> Polynomial:
    """Coefficient reversal ``z^n p(1/z)``; swaps structure at 0 and infinity."""
    if p.is_zero:
        raise ZeroPolynomialError("cannot reverse the zero polynomial")
    if p.truncated:
        raise TruncatedSeriesError("the reciprocal needs the true leading coefficient")
    return Polynomial(tuple(reversed(p.coeffs)))


# ---------------------------------------------------------------------------
# Text and JSON input formats (shared by CLI and files).
#
# A polynomial is written as comma-separated complex literals in ascending
# degree, e.g. "1,0,1,1i" for 1 + z^2 + i z^3.  A literal is an optional real
# part followed by an optional imaginary part with an "i" suffix, such as
# "2", "-0.5", "1i", "-i", "0.001+1i".
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COEFF_RE = re.compile(rf"^(?P<s1>[+-])?(?P<n1>{_NUM})?(?:(?P<s2>[+-])?(?P<n2>{_NUM})?(?P<i>i))?$")
# a nonzero digit before the exponent: the literal names a nonzero number
_NONZERO_MANTISSA = re.compile(r"[^eE]*[1-9]")


def _underflows(literal: str) -> bool:
    """Whether a float literal names a nonzero number that rounds to 0.0.

    ``Polynomial`` trims only exact zeros, because the classification is
    discontinuous at 0, so such a literal would silently drop its term.
    Subnormals such as ``1e-320`` are nonzero floats and pass."""
    return float(literal) == 0.0 and _NONZERO_MANTISSA.match(literal) is not None


def _signed(sign: str | None, digits: str) -> float:
    return -float(digits) if sign == "-" else float(digits)


def parse_coeff(token: str, position: int = 0) -> complex:
    text = token.strip()
    m = _COEFF_RE.fullmatch(text)
    if not m or not text:
        raise PolyParseError(token, position)
    if any(g is not None and _underflows(g) for g in m.group("n1", "n2")):
        raise PolyParseError(token, position, "nonzero literal underflows to 0.0")
    if m.group("i"):
        if m.group("s2") is None and m.group("n2") is None:
            # the leading part is the imaginary magnitude: "1i", "-i", "i"
            z = complex(0.0, _signed(m.group("s1"), m.group("n1") or "1"))
        elif m.group("n1") is None:
            raise PolyParseError(token, position, "imaginary part follows an empty real part")
        else:
            real = _signed(m.group("s1"), m.group("n1"))
            z = complex(real, _signed(m.group("s2"), m.group("n2") or "1"))
    elif m.group("n1") is None:
        raise PolyParseError(token, position)
    else:
        z = complex(_signed(m.group("s1"), m.group("n1")), 0.0)
    if not cmath.isfinite(z):
        raise PolyParseError(token, position, "coefficient is not finite")
    return z


def parse_poly(text: str) -> Polynomial:
    tokens = text.split(",")
    return Polynomial(tuple(parse_coeff(tok, i) for i, tok in enumerate(tokens)))


def json_float(literal: str) -> float:
    """``parse_float`` hook for ``json.load`` of a polynomial file: the
    float of ``literal``.  A nonzero literal that underflows raises
    ``ValueError``, as ``float`` does on a literal it cannot read."""
    if _underflows(literal):
        raise ValueError(f"nonzero literal {literal} underflows to 0.0")
    return float(literal)


def poly_from_json(data) -> Polynomial:
    """Build a polynomial from ``{"coeffs": [[re, im], ...]}``, where ``re``
    and ``im`` are JSON numbers: a string or a boolean is rejected.

    An optional ``"truncated": true`` marks a truncated Taylor series; the
    flag must be a JSON boolean, and a missing flag means false.
    """
    if not isinstance(data, dict) or "coeffs" not in data:
        raise PolyParseError("the JSON document", None, 'expected an object with a "coeffs" array')
    if not isinstance(data["coeffs"], (list, tuple)):
        raise PolyParseError("the JSON document", None, '"coeffs" must be an array')
    coeffs = []
    for i, pair in enumerate(data["coeffs"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise PolyParseError(reprlib.repr(pair), i, "expected a [re, im] pair")
        try:  # JSON numbers only: float() also reads "1" and true
            z = complex(float(pair[0]), float(pair[1]))
            finite = cmath.isfinite(z) and not any(isinstance(v, (str, bool)) for v in pair)
        except (TypeError, ValueError, OverflowError):
            finite = False
        if not finite:
            reason = "expected a [re, im] pair of finite numbers"
            raise PolyParseError(reprlib.repr(pair), i, reason)
        coeffs.append(z)
    truncated = data.get("truncated", False)
    if not isinstance(truncated, bool):
        reason = f"expected true or false, got {reprlib.repr(truncated)}"
        raise PolyParseError('the "truncated" flag', None, reason)
    return Polynomial(tuple(coeffs), truncated=truncated)


def _fmt_real(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt_complex(c: complex) -> str:
    re_, im = c.real, c.imag
    if im == 0:
        return _fmt_real(re_)
    imag = f"{_fmt_real(im)}i" if im < 0 else f"+{_fmt_real(im)}i"
    if re_ == 0:
        return imag.lstrip("+")
    return f"{_fmt_real(re_)}{imag}"


def format_poly(p: Polynomial) -> str:
    """Inverse of :func:`parse_poly` (canonical form)."""
    if p.is_zero:
        return "0"
    return ",".join(_fmt_complex(c) for c in p.coeffs)
