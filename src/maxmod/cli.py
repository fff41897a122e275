"""Command-line interface: classify, trace, hunt.

Exit codes: 0 success/CONFIRMED, 1 any other failure (such as a maximizer
refinement that does not converge), 2 parse or option error or a coefficient
ratio outside the float range, 3 monomial input, 4 DISCREPANT trace, 5 radius
below the numerical floor, 6 I/O failure.  Each error class of
:mod:`maxmod.errors` carries its own code.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .classify import MAGIC, Classification, classify
from .errors import ConfigError, MaxmodError, PolyParseError
from .poly import (
    HaymanForm,
    Polynomial,
    format_poly,
    json_float,
    normalize,
    parse_poly,
    poly_from_json,
    reciprocal,
)
from .svg import write_svg
from .tracer import (
    MAX_RADII,
    TraceConfig,
    ambiguity_radius,
    count_components,
    trace,
    write_csv,
)
from .util import canonical_json

# hunt --samples is at most MAX_SAMPLES; its records are built in memory
MAX_SAMPLES = 100_000

CONFIRMED = "CONFIRMED"
CONJECTURE_CONSISTENT = "CONJECTURE_CONSISTENT"
DISCREPANT = "DISCREPANT"


def _load_poly(args) -> Polynomial:
    if args.poly is not None and args.poly_file is not None:
        raise ConfigError("give --poly or --poly-file, not both")
    if args.poly:
        p = parse_poly(args.poly)
    elif args.poly_file:
        with open(args.poly_file, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, parse_float=json_float)
            except json.JSONDecodeError as ex:
                where = f"line {ex.lineno}, column {ex.colno}"
                raise PolyParseError(
                    f"file {args.poly_file!r}", None, f"invalid JSON at {where}: {ex.msg}"
                ) from ex
            except ValueError as ex:  # not UTF-8, a too long integer, an underflowing float
                raise PolyParseError(f"file {args.poly_file!r}", None, str(ex)) from ex
        p = poly_from_json(data)
    else:
        raise PolyParseError("the input", None, "none given; provide --poly or --poly-file")
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


def cmd_classify(args) -> int:
    p = _load_poly(args)
    c = classify(p)
    print(canonical_json(c.to_json_dict()))
    return 0


def cmd_trace(args) -> int:
    p = _load_poly(args)
    cfg = TraceConfig(r_min=args.rmin, r_max=args.rmax, n_radii=args.radii, grid=args.grid)
    # near infinity, the near-origin structure of z^n p(1/z), with w = 1/z
    h = normalize(reciprocal(p) if args.infinity else p)
    c = classify(h)
    result = trace(h, cfg)
    if args.infinity:
        result = replace(result, inverted=True)

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
            "tangents": [vars(t) for t in result.tangents],
            "symmetry": [vars(s) for s in result.symmetry],
            "events": [vars(e) for e in result.events],
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
        for t in result.tangents:
            if t.on_ray:
                alpha = "on ray"
            elif t.alpha_hat is None:
                alpha = "alpha unresolved"
            else:
                alpha = f"alpha={t.alpha_hat:.3f}"
            print(
                f"  curve {t.curve_id}: omega_hat={t.omega_hat: .10f} "
                f"({alpha}), matches omega_{t.matched_j} within {t.omega_error:.2e}"
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


def _hunt_radius(h: HaymanForm) -> float:
    """The radius at which an exceptional member's curves are counted."""
    return min(max(2e-4, 1.5 * h.floor, 3.0 * ambiguity_radius(h)), 0.02)


def cmd_hunt(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"need --seed >= 0, got {args.seed}")
    if args.samples < 0:
        raise ConfigError(f"need --samples >= 0, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise ConfigError(f"need --samples <= {MAX_SAMPLES}, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    members = [_sample_member(args.family, rng, on_locus=(i % 2 == 1)) for i in range(args.samples)]
    records, exceptional = [], []
    for p, locus in members:
        h = normalize(p)  # the one normal form that classify, radius and count read
        c = classify(h)
        records.append(
            {
                "family": args.family,
                "coeffs": [[z.real, z.imag] for z in p.coeffs],
                "on_locus": locus,
                "exceptional": c.exceptional,
                "magic": c.magic,
                "mu": c.mu,
                "n_components": None,
                "conjecture_holds": None,
            }
        )
        if c.exceptional:
            exceptional.append((records[-1], c, h))
    # one call counts every exceptional member, with one root solve per row group
    counts = count_components([(h, _hunt_radius(h)) for _, _, h in exceptional])
    for (record, c, _), n_components in zip(exceptional, counts):
        record["n_components"] = n_components
        record["conjecture_holds"] = agreement_verdict(c, n_components) != DISCREPANT
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


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
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
        help=f"number of sampled polynomials (0-{MAX_SAMPLES})",
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
    except MaxmodError as ex:
        print(f"error[{ex.code}]: {ex}", file=sys.stderr)
        return ex.exit_code
    except OSError as ex:
        print(f"error[IO]: {ex}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
