"""Command-line interface: classify, trace, hunt.

Exit codes: 0 success/CONFIRMED, 1 any other failure (such as a maximizer
refinement that does not converge), 2 parse or option error or a coefficient
ratio outside the float range, 3 monomial input, 4 DISCREPANT trace, 5 radius
below the numerical floor, 6 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .classify import MAGIC, Classification, classify
from .errors import (
    CoefficientRangeError,
    FloorViolationError,
    MaxmodError,
    MonomialAllPlaneError,
    PolyParseError,
    TruncatedSeriesError,
    ZeroPolynomialError,
)
from .poly import Polynomial, format_poly, normalize, parse_poly, poly_from_json, reciprocal
from .svg import write_svg
from .tracer import (
    MAX_RADII,
    TraceConfig,
    TraceResult,
    ambiguity_radius,
    floor_radius,
    trace,
    trace_at_infinity,
    write_csv,
)
from .util import canonical_json

# hunt --samples is at most MAX_SAMPLES; its records are built in memory
MAX_SAMPLES = 100_000

CONFIRMED = "CONFIRMED"
CONJECTURE_CONSISTENT = "CONJECTURE_CONSISTENT"
DISCREPANT = "DISCREPANT"


def _load_poly(args) -> Polynomial:
    if args.poly:
        p = parse_poly(args.poly)
    elif args.poly_file:
        with open(args.poly_file, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as ex:
                raise PolyParseError(args.poly_file, ex.pos, f"invalid JSON: {ex.msg}") from ex
            except ValueError as ex:  # not UTF-8, or an integer too long to convert
                raise PolyParseError(args.poly_file, 0, str(ex)) from ex
        p = poly_from_json(data)
    else:
        raise PolyParseError("<missing>", 0, "provide --poly or --poly-file")
    if args.truncated:
        p = Polynomial(p.coeffs, truncated=True)
    return p


def agreement_verdict(c: Classification, n_components: int) -> str:
    """Compare a traced component count against the classification.

    Non-exceptional inputs must match the proven count mu; magic inputs
    must match the doubled count; for exceptional inputs of unknown magic
    status a count of mu confirms the generic picture while 2*mu is
    consistent with the doubling conjecture.  Anything else is flagged.
    """
    if not c.exceptional:
        return CONFIRMED if n_components == c.mu else DISCREPANT
    if c.magic == MAGIC:
        return CONFIRMED if n_components == 2 * c.mu else DISCREPANT
    if n_components == c.mu:
        return CONFIRMED
    if n_components == 2 * c.mu:
        return CONJECTURE_CONSISTENT
    return DISCREPANT


def _tangent_rows(result: TraceResult) -> list[dict]:
    return [
        {
            "curve_id": t.curve_id,
            "omega_hat": t.omega_hat,
            "alpha_hat": None if t.on_ray else t.alpha_hat,
            "on_ray": t.on_ray,
            "matched_j": t.matched_j,
            "matched_omega": t.matched_omega,
            "omega_error": t.omega_error,
        }
        for t in result.tangents
    ]


def cmd_classify(args) -> int:
    p = _load_poly(args)
    c = classify(p)
    print(canonical_json(c.to_json_dict()))
    return 0


def cmd_trace(args) -> int:
    p = _load_poly(args)
    try:
        cfg = TraceConfig(r_min=args.rmin, r_max=args.rmax, n_radii=args.radii, grid=args.grid)
    except ValueError as ex:
        print(f"error[Config]: {ex}", file=sys.stderr)
        return 2
    if args.infinity:
        # trace_at_infinity rejects a monomial reciprocal.  Classify the tail
        # it traces, not reciprocal(p): normalizing that tail again can flip
        # the sign of a zero imaginary part, which reorders omega, and the
        # trace's matched_j indexes the reordered list
        result = trace_at_infinity(p, cfg)
        c = classify(normalize(reciprocal(p)).tail)
    else:
        c = classify(p)
        result = trace(p, cfg)

    verdict = agreement_verdict(c, result.n_components)
    artifacts: dict[str, str | None] = {"csv": None, "svg": None}
    if args.csv:
        write_csv(result, args.csv)
        artifacts["csv"] = args.csv
    if args.svg:
        write_svg(result, args.svg, cfg.r_max)
        artifacts["svg"] = args.svg

    report = {
        "poly": args.poly if args.poly else format_poly(p),
        "coeffs": [[z.real, z.imag] for z in p.coeffs],
        "classification": c.to_json_dict(),
        "trace": {
            "n_components": result.n_components,
            "stable_radius": result.stable_radius,
            "r_min": cfg.r_min,
            "r_max": cfg.r_max,
            "n_radii": cfg.n_radii,
            "inverted": result.inverted,
            "tangents": _tangent_rows(result),
            "symmetry": [
                {
                    "curve_a": s.curve_a,
                    "curve_b": s.curve_b,
                    "rotation_m": s.rotation_m,
                    "max_dev": s.max_dev,
                }
                for s in result.symmetry
            ],
            "events": [
                {"kind": e.kind, "r": e.r, "curve_id": e.curve_id, "legitimate": e.legitimate}
                for e in result.events
            ],
        },
        "agreement": verdict,
        "artifacts": artifacts,
    }
    if args.json:
        print(canonical_json(report))
    elif not args.quiet:
        print(f"poly: {report['poly']}")
        print(
            f"mu={c.mu} exceptional={c.exceptional} magic={c.magic} "
            f"predicted={report['classification']['predicted_count']}"
        )
        print(
            f"traced components: {result.n_components} "
            f"(stable below r={result.stable_radius:.6g})  ->  {verdict}"
        )
        for row in _tangent_rows(result):
            alpha = "on ray" if row["on_ray"] else f"alpha={row['alpha_hat']:.3f}"
            print(
                f"  curve {row['curve_id']}: omega_hat={row['omega_hat']: .10f} "
                f"({alpha}), matches omega_{row['matched_j']} "
                f"within {row['omega_error']:.2e}"
            )
        for key, val in artifacts.items():
            if val:
                print(f"  {key}: {val}")
    return 0 if verdict in (CONFIRMED, CONJECTURE_CONSISTENT) else 4


def _locus_phase(rng: np.random.Generator, k: int, sigma: int, arg_a: float) -> float:
    """Solve the resonance equation for arg b_sigma given random m, m'."""
    m = int(rng.integers(1, 2 * k - 2))
    m_prime = int(rng.integers(0, 4))
    return m_prime * math.pi - sigma * (m * math.pi - arg_a) / k


def _sample_member(family: str, rng: np.random.Generator, on_locus: bool) -> tuple[Polynomial, bool]:
    def draw():
        return rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi)

    if family == "cubic":
        ra, pa = draw()
        rb, pb = draw()
        if on_locus:
            pb = _locus_phase(rng, k=2, sigma=3, arg_a=pa)
        a = ra * np.exp(1j * pa)
        b = rb * np.exp(1j * pb)
        return Polynomial((1.0, 0.0, a, b)), on_locus

    # quartic family: 1 + a z^k + ... + c z^4 with k in {1, 2, 3}
    k = int(rng.choice([2, 3] if on_locus else [1, 2, 3]))
    coeffs = [0j] * 5
    coeffs[0] = 1.0 + 0j
    ra, pa = draw()
    coeffs[k] = ra * np.exp(1j * pa)
    middles = [e for e in range(k + 1, 4) if rng.random() < 0.5]
    for e in middles:
        rm, pm = draw()
        coeffs[e] = rm * np.exp(1j * pm)
    rc, pc = draw()
    coeffs[4] = rc * np.exp(1j * pc)
    if on_locus:
        sigma = int(rng.choice(middles + [4]))
        phase = _locus_phase(rng, k=k, sigma=sigma, arg_a=pa)
        coeffs[sigma] = abs(coeffs[sigma]) * np.exp(1j * phase)
    return Polynomial(tuple(coeffs)), on_locus


def _hunt_one(family: str, p: Polynomial, on_locus: bool) -> dict:
    c = classify(p)
    record = {
        "family": family,
        "coeffs": [[z.real, z.imag] for z in p.coeffs],
        "on_locus": on_locus,
        "exceptional": c.exceptional,
        "magic": c.magic,
        "mu": c.mu,
        "n_components": None,
        "conjecture_holds": None,
    }
    if not c.exceptional:
        return record
    h = normalize(p)
    r_min = max(2e-4, 1.5 * floor_radius(h), 3.0 * ambiguity_radius(h))
    r_min = min(r_min, 0.02)
    result = trace(p, TraceConfig(r_min=r_min, r_max=0.3, n_radii=160))
    n = result.n_components
    record["n_components"] = n
    if c.magic == MAGIC:
        record["conjecture_holds"] = n == 2 * c.mu
    else:
        record["conjecture_holds"] = n in (c.mu, 2 * c.mu)
    return record


def cmd_hunt(args) -> int:
    if args.seed < 0:
        print(f"error[Config]: need --seed >= 0, got {args.seed}", file=sys.stderr)
        return 2
    if args.samples > MAX_SAMPLES:
        print(
            f"error[Config]: need --samples <= {MAX_SAMPLES}, got {args.samples}", file=sys.stderr
        )
        return 2
    rng = np.random.default_rng(args.seed)
    members = [_sample_member(args.family, rng, on_locus=(i % 2 == 1)) for i in range(args.samples)]
    records = [_hunt_one(args.family, p, locus) for p, locus in members]
    with open(args.out, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(canonical_json(rec) + "\n")
    if not args.quiet:
        traced = [r for r in records if r["n_components"] is not None]
        holds = [r for r in traced if r["conjecture_holds"]]
        print(
            f"hunt {args.family}: {len(records)} samples, {len(traced)} exceptional traced, "
            f"{len(holds)} consistent with the doubling conjecture -> {args.out}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxmod",
        description="Classify and trace the maximum modulus set of a complex "
        "polynomial near the origin.",
    )
    parser.add_argument("--version", action="version", version=f"maxmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--poly", help='inline coefficients, e.g. "1,0,1,1i"')
    common.add_argument("--poly-file", help='JSON file {"coeffs": [[re,im],...]}')
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress human-readable chatter")
    common.add_argument(
        "--truncated",
        action="store_true",
        help="treat the input as a truncated Taylor series (classify only)",
    )

    p_cls = sub.add_parser("classify", parents=[common], help="coefficient-level classification")
    p_cls.set_defaults(func=cmd_classify)

    p_tr = sub.add_parser("trace", parents=[common], help="trace the maximum modulus set")
    p_tr.add_argument("--rmin", type=float, default=1e-3)
    p_tr.add_argument("--rmax", type=float, default=0.3)
    p_tr.add_argument("--radii", type=int, default=200, help=f"number of radii (2-{MAX_RADII})")
    p_tr.add_argument(
        "--grid",
        type=int,
        default=4096,
        help="no effect on the trace; accepted for compatibility (64-65536)",
    )
    p_tr.add_argument("--csv", help="write per-sample CSV here")
    p_tr.add_argument("--svg", help="write curve plot here")
    p_tr.add_argument(
        "--infinity", action="store_true", help="trace near infinity via the reciprocal"
    )
    p_tr.set_defaults(func=cmd_trace)

    p_h = sub.add_parser("hunt", help="batch exploration of the doubling conjecture")
    p_h.add_argument("--family", choices=("cubic", "quartic"), required=True)
    p_h.add_argument(
        "--samples",
        type=int,
        default=100,
        help=f"number of sampled polynomials (at most {MAX_SAMPLES})",
    )
    p_h.add_argument("--seed", type=int, default=0)
    p_h.add_argument("--out", required=True, help="findings file (one JSON object per line)")
    p_h.add_argument("--quiet", action="store_true", help="suppress the summary line")
    p_h.set_defaults(func=cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse before Python 3.12 parses "--opt=--" as [], skipping type and choices
    for key, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{key.replace('_', '-')}: expected one argument")
    try:
        return args.func(args)
    except (PolyParseError, ZeroPolynomialError, TruncatedSeriesError, CoefficientRangeError) as ex:
        print(f"error[{ex.code}]: {ex}", file=sys.stderr)
        return 2
    except MonomialAllPlaneError as ex:
        print(f"error[{ex.code}]: {ex}", file=sys.stderr)
        return 3
    except FloorViolationError as ex:
        print(f"error[{ex.code}]: {ex}", file=sys.stderr)
        return 5
    except OSError as ex:
        print(f"error[IO]: {ex}", file=sys.stderr)
        return 6
    except MaxmodError as ex:
        print(f"error[{ex.code}]: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
