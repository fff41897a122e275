"""Exception types shared across the package.

Each error carries a short machine-readable ``code``, printed by the CLI as
``error[code]`` and matched by tests, and the ``exit_code`` the CLI
returns for it.
"""


class MaxmodError(Exception):
    code = "Error"
    exit_code = 1


class PolyParseError(MaxmodError):
    """The coefficient ``token`` at index ``position`` cannot be read; with
    ``position`` None, ``token`` names the whole input that cannot be read,
    such as a file or the JSON document."""

    code = "ParseError"
    exit_code = 2

    def __init__(self, token: str, position: int | None, reason: str = ""):
        self.token = token
        self.position = position
        if position is None:
            msg = f"cannot parse {token}"
        else:
            msg = f"cannot parse coefficient {token!r} at position {position}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class ConfigError(MaxmodError, ValueError):
    """An option value outside its documented range."""

    code = "Config"
    exit_code = 2


class ZeroPolynomialError(MaxmodError):
    code = "ZeroPolynomial"
    exit_code = 2


class CoefficientRangeError(MaxmodError):
    """A coefficient ratio of the normalized form is not a finite nonzero float."""

    code = "CoefficientRange"
    exit_code = 2


class MonomialAllPlaneError(MaxmodError):
    """The maximum modulus set of c*z^n is the whole plane; nothing to do."""

    code = "MonomialAllPlane"
    exit_code = 3


class TruncatedSeriesError(MaxmodError):
    """Operation needs a genuine polynomial, not a truncated series."""

    code = "TruncatedSeries"
    exit_code = 2


class RefinementFailureError(MaxmodError):
    code = "RefinementFailure"

    def __init__(self, r: float, theta_seed: float):
        self.r = r
        self.theta_seed = theta_seed
        super().__init__(f"maximizer refinement failed at r={r!r}, seed theta={theta_seed!r}")


class FloorViolationError(MaxmodError):
    code = "FloorViolation"
    exit_code = 5

    def __init__(self, r_min: float, required: float):
        self.r_min = r_min
        self.required = required
        super().__init__(
            f"r_min={r_min!r} is below the numerical floor; "
            f"minimum admissible r_min is {required!r}"
        )
