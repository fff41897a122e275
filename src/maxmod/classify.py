"""Coefficient-level classification of the maximum-modulus set near 0.

For ``p = 1 + a z^k + ...`` the candidate tangent directions are the k
angles ``omega_j = (2 j pi - arg a) / k`` (:attr:`HaymanForm.omega
<maxmod.poly.HaymanForm.omega>`).  Which candidates actually carry a
maximum curve is decided by an argument-resonance test on the coefficients
(the *exceptional* condition).  For non-exceptional inputs the number of
curves equals the inner degree, proven; the inner degree and the core
degree, up to which the resonance test scans, are read from the normalized
form (:func:`~maxmod.poly.normalize`).  :func:`classify` reads the count
off the inner degree and runs no survivor recursion: the recursion over the
weights ``t_j = 2|b| cos(n omega_j + arg b)`` is the tests' oracle of that
count (``tests/oracles.py``), and
:func:`~maxmod.tracer.ambiguity_radius` computes the gaps of its weights
itself.

Magic is read off the same resonance scan.  A tail of degree at most 3
resonates only as ``1 + a z^2 + b z^3`` with ``m = 1``, which is the
paper's magic cubic ``Re(b a^{-3/2}) = 0``, so an exceptional polynomial of
that degree is MAGIC.  A truncated series or a tail of degree 4 and more
that resonates is UNKNOWN: the paper proves nothing there, and this module
never guesses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .poly import HaymanForm, Polynomial, normalize
from .util import frozen_instance

# Tolerances for the exact algebraic tests.  Doubles lose ~1e-16 per arg;
# axis-aligned user input lands within 1e-12, so 1e-9 separates "intended
# exactly" from "merely close".  Both argument tolerances are in radians: a
# resonance residual, which is in units of pi, is compared times pi.
# Residuals in (EPS_ARG, NEAR_ARG] produce a near-exceptional warning instead
# of a verdict; like a witness, the warning states the residual in units of
# pi.
EPS_ARG = 1e-9
NEAR_ARG = 1e-6

MAGIC = "MAGIC"
NOT_MAGIC = "NOT_MAGIC"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class ExceptionalWitness:
    """One resonance hit: ``m pi = (k/sigma)(m' pi - arg b_sigma) + arg a``."""

    m: int
    m_prime: int
    sigma: int
    residual: float  # distance of m' from the integer m_prime, in units of pi


@dataclass(frozen=True)
class Classification:
    mu: int
    N: int
    omega: tuple[float, ...]
    exceptional: bool
    witnesses: tuple[ExceptionalWitness, ...]
    magic: str  # MAGIC | NOT_MAGIC | UNKNOWN
    predicted_count: int | tuple[int, ...]
    conjecture_count: int | None
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        """Every field as ``classify --json`` prints it: tuples become lists
        and witnesses dicts, so the result equals its own JSON round trip."""
        out = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}
        out["witnesses"] = [dict(vars(w)) for w in self.witnesses]
        return out


def _exceptional_scan(h: HaymanForm):
    """All resonance triples (m, m', sigma), sigma up to the core degree,
    plus near-miss warnings.  Empty m-range for k = 1, so such inputs are
    never exceptional."""
    k = h.k
    arg_a = cmath.phase(h.a)
    k_pi = k * math.pi
    coeffs = h.tail.coeffs
    witnesses = []
    near = []
    for sigma in range(k + 1, h.N + 1):
        b = coeffs[sigma]
        if b == 0:
            continue
        arg_b_pi = cmath.phase(b) / math.pi
        for m in range(1, 2 * k - 2):
            m_prime = sigma * (m * math.pi - arg_a) / k_pi + arg_b_pi
            residual = abs(m_prime - round(m_prime))  # in units of pi
            if math.pi * residual <= EPS_ARG:
                witness = frozen_instance(
                    ExceptionalWitness, m=m, m_prime=round(m_prime), sigma=sigma, residual=residual
                )
                witnesses.append(witness)
            elif math.pi * residual <= NEAR_ARG:
                # the residual stays last: callers read the float after "residual="
                near.append(
                    f"near-exceptional: m={m} sigma={sigma}, in units of pi: residual={residual:.3e}"
                )
    return bool(witnesses), tuple(witnesses), tuple(near)


def classify(p: Polynomial | HaymanForm) -> Classification:
    """Full coefficient-level report for a polynomial or its normal form.

    Everything is read off the normal form (:func:`~maxmod.poly.normalize`,
    which returns a form unchanged): ``mu`` and ``N``, one resonance scan,
    and the truncation of ``tail``.  The count of a non-exceptional input is
    ``mu``, proven, so no survivor recursion runs.
    ``magic`` is NOT_MAGIC where the scan finds no resonance, MAGIC where it
    finds one on a polynomial tail of degree at most 3, and UNKNOWN on
    every other exceptional input.  ``omega`` is the form's
    :attr:`~maxmod.poly.HaymanForm.omega`.  A monomial raises
    :class:`MonomialAllPlaneError` from ``normalize``: its maximum modulus
    set is the whole plane and there is nothing to classify.  The report
    and its witnesses are built with one write of their fields
    (:func:`~maxmod.util.frozen_instance`), not by the generated
    constructors, and are the same values.
    """
    h = normalize(p)
    k, mu = h.k, h.mu
    exceptional, witnesses, near = _exceptional_scan(h)
    if h.tail.truncated:
        near = near + (
            "truncated series: exact only if the omitted terms lie above the core degree",
        )

    if not exceptional:
        magic = NOT_MAGIC
    elif h.tail.degree <= 3 and not h.tail.truncated:
        # the resonance of 1 + a z^2 + b z^3, the only one below degree 4,
        # is the magic cubic's Re(b a^{-3/2}) = 0; the terms a series omits
        # may undo the doubling
        magic = MAGIC
    else:
        # the paper proves nothing beyond cubics; never guess
        magic = UNKNOWN

    predicted_count: int | tuple[int, ...]
    if not exceptional:
        predicted_count = mu
    else:
        predicted_count = tuple(range(mu, k + 1, mu))
    conjecture_count = 2 * mu if magic == MAGIC else None

    return frozen_instance(
        Classification,
        mu=mu,
        N=h.N,
        omega=h.omega,
        exceptional=exceptional,
        witnesses=witnesses,
        magic=magic,
        predicted_count=predicted_count,
        conjecture_count=conjecture_count,
        warnings=near,
    )
