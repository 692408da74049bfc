"""Command-line front end.

Subcommands: analyze, quadrics, family, obstruct, oracle, verify.
stdout carries JSON only; diagnostics go to stderr.  Exit codes: 0 on
success, 1 on I/O, parse or usage errors, 2 on structural rejection.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import analysis_to_json, analyze_polytope
from .families import family_spec, parse_family_spec, parse_profile_spec
from .invariants import InvariantError, deck_data, loop_lattice
from .oracle import OracleError, TorusLoop, oracle_checks
from .polytopes import (
    DEFAULT_SUBSET_BUDGET,
    PolytopeError,
    PolytopeFormatError,
    enumerate_vertices,
    parse_integer,
    parse_polytope,
    polytope_to_json,
    redundancy,
)
from .quadrics import (
    QuadricError,
    parse_quadrics,
    polytope_to_quadrics,
    quadrics_to_json,
    quadrics_to_polytope,
)
from .reproduce import run_suite
from .spectral import ProfileError, admissible_maslov, parse_profile, run_engine

USER_ERRORS = (
    PolytopeFormatError,
    PolytopeError,
    QuadricError,
    InvariantError,
    ProfileError,
    OracleError,
    OSError,
    ValueError,
)


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_polytope(args):
    if getattr(args, "family", None):
        return parse_family_spec(args.family)
    if not args.path:
        raise PolytopeFormatError("either a polytope file or --family is required")
    return parse_polytope(_read(args.path))


def cmd_analyze(args) -> int:
    poly = _load_polytope(args)
    report = analyze_polytope(
        poly,
        with_oracle=args.oracle,
        seed=args.seed,
        samples=args.samples,
        budget=args.budget,
    )
    _emit(analysis_to_json(report))
    if args.require_embedded and report.structure.delzant is not True:
        print("rejected: the presentation is not Delzant", file=sys.stderr)
        return 2
    return 0


def cmd_quadrics(args) -> int:
    if args.invert:
        system = parse_quadrics(_read(args.path))
        _emit(polytope_to_json(quadrics_to_polytope(system)))
    else:
        poly = _load_polytope(args)
        _emit(quadrics_to_json(polytope_to_quadrics(poly)))
    return 0


def cmd_family(args) -> int:
    _emit(polytope_to_json(parse_family_spec(args.spec)))
    return 0


def cmd_obstruct(args) -> int:
    if args.nmax is not None and args.nmax < 2:
        raise ValueError("--nmax must be at least 2")
    if args.family:
        profile = parse_profile_spec(args.family, args.l_dim)
    elif args.path:
        profile = parse_profile(_read(args.path))
    else:
        raise PolytopeFormatError("either a profile file or --family is required")
    n_max = args.nmax if args.nmax is not None else profile.l_dim
    admissible = admissible_maslov(profile, n_max)
    excluded = []
    for n in range(2, n_max + 1):
        if n in admissible:
            continue
        if profile.orientable and n % 2:
            excluded.append({"n": n, "reason": "parity"})
            continue
        result = run_engine(profile, n)
        excluded.append({"n": n, "witness_degree": result.witness_degree})
    _emit(
        {
            "profile": {
                "dims": {str(d): v for d, v in profile.dims},
                "L_dim": profile.l_dim,
                "orientable": profile.orientable,
            },
            "n_max": n_max,
            "admissible": sorted(admissible),
            "excluded": excluded,
        }
    )
    return 0


def cmd_oracle(args) -> int:
    poly = _load_polytope(args)
    system = polytope_to_quadrics(poly)
    if args.loop:
        coords = tuple(parse_integer(x, "loop coordinate") for x in args.loop.split(","))
        loops = [TorusLoop(coords, doubled=True, samples=args.samples)]
    else:
        vertex_set = enumerate_vertices(poly, relations=system.gamma)
        strict = sorted(i for i, s in redundancy(poly, vertex_set=vertex_set).items() if s)
        loops = [
            TorusLoop(v, doubled=True, samples=args.samples)
            for v in loop_lattice(deck_data(system), system, strict).basis
        ]
    records = oracle_checks(system, loops, family=family_spec(system), seed=args.seed)
    _emit(records)
    return 0 if all(r["pass"] for r in records) else 1


def cmd_verify(args) -> int:
    rows = run_suite(only=args.only, seed=args.seed)
    if not rows:
        raise ValueError(f"--only {args.only!r} matched no suite keys")
    _emit([row.to_json() for row in rows])
    return 1 if any(row.status == "fail" for row in rows) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delzant",
        description=(
            "Exact workbench for lattice polytopes, their quadric systems, and "
            "the Maslov data of the associated Lagrangians"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline report for a polytope")
    analyze.add_argument("path", nargs="?", help="polytope JSON file")
    analyze.add_argument("--family", help="generate the input from a family spec")
    analyze.add_argument("--oracle", action="store_true", help="run numerical checks")
    analyze.add_argument(
        "--require-embedded",
        action="store_true",
        help="exit 2 unless the presentation is Delzant",
    )
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--samples", type=int, default=0)
    analyze.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    analyze.set_defaults(func=cmd_analyze)

    quad = sub.add_parser("quadrics", help="convert between polytopes and quadrics")
    quad.add_argument("path", nargs="?", help="input JSON file")
    quad.add_argument("--family", help="generate the input from a family spec")
    quad.add_argument(
        "--invert", action="store_true", help="read quadrics, emit a polytope"
    )
    quad.set_defaults(func=cmd_quadrics)

    family = sub.add_parser("family", help="emit a family polytope as JSON")
    family.add_argument("spec", help="e.g. product-simplices:p=4,n=10,k=2")
    family.set_defaults(func=cmd_family)

    obstruct = sub.add_parser("obstruct", help="admissible minimal Maslov numbers")
    obstruct.add_argument("path", nargs="?", help="homology profile JSON file")
    obstruct.add_argument("--family", help="e.g. sphere-product:p=4,q=6")
    obstruct.add_argument("--L-dim", dest="l_dim", type=int, default=None)
    obstruct.add_argument("--nmax", type=int, default=None)
    obstruct.set_defaults(func=cmd_obstruct)

    oracle = sub.add_parser("oracle", help="numerical loop checks for a polytope")
    oracle.add_argument("path", nargs="?", help="polytope JSON file")
    oracle.add_argument("--family", help="generate the input from a family spec")
    oracle.add_argument("--loop", help="comma-separated loop class coordinates")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--samples", type=int, default=0)
    oracle.set_defaults(func=cmd_oracle)

    verify = sub.add_parser("verify", help="run the reproduction suite")
    verify.add_argument("--only", help="run only suites whose key contains this string")
    verify.add_argument("--seed", type=int, default=None, help="override the seeded checks")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
