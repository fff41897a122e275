"""Classify and numerically trace the maximum modulus set of complex
polynomials near the origin (and, via reciprocals, near infinity)."""

from .classify import (
    Classification,
    ExceptionalWitness,
    classify,
)
from .errors import (
    CoefficientRangeError,
    ConfigError,
    FloorViolationError,
    MaxmodError,
    MonomialAllPlaneError,
    PolyParseError,
    RefinementFailureError,
    TruncatedSeriesError,
    ZeroPolynomialError,
)
from .modulus import ModulusExpansion, expand
from .poly import (
    HaymanForm,
    Polynomial,
    floor_radius,
    format_poly,
    normalize,
    parse_poly,
    poly_from_json,
    reciprocal,
)
from .tracer import (
    CurveSample,
    TraceConfig,
    TraceResult,
    ambiguity_radius,
    trace,
    trace_at_infinity,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CurveSample",
    "ExceptionalWitness",
    "CoefficientRangeError",
    "ConfigError",
    "FloorViolationError",
    "HaymanForm",
    "MaxmodError",
    "ModulusExpansion",
    "MonomialAllPlaneError",
    "PolyParseError",
    "Polynomial",
    "RefinementFailureError",
    "TraceConfig",
    "TruncatedSeriesError",
    "TraceResult",
    "ZeroPolynomialError",
    "ambiguity_radius",
    "classify",
    "expand",
    "floor_radius",
    "format_poly",
    "normalize",
    "parse_poly",
    "poly_from_json",
    "reciprocal",
    "trace",
    "trace_at_infinity",
    "write_csv",
]
