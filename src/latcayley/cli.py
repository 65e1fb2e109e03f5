"""Command-line front end.

Subcommands: ``check`` (property deciders on polytope files), ``construct``
(Minkowski sums, Cayley sums, dilates written back to files), ``reproduce``
(documented counterexample families), ``verify`` (randomized theorem
campaigns), ``random`` (seeded instance generation).

Exit codes: 0 when the property holds / is verified / is covered, 1 when it
fails or a campaign records violations, 2 for usage, file and budget errors.
``--format`` controls stdout; ``--out`` always writes the machine-readable
JSON report, which is byte-stable apart from its timestamp field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .campaigns import CampaignConfig, CampaignReport, THEOREM_IDS, verify_theorem
from .covering import has_interior_translate_cover, is_2_convex_normal
from .generator import random_lattice_polytope
from .geometry import CellBudgetExceeded, GeometryError
from .polyfile import PolytopeFileError, load_polytope, save_polytope
from .polytope import cayley_sum, dilate, minkowski_sum
from .properties import (
    Verdict,
    edge_length_criterion,
    is_gorenstein,
    is_idp,
    is_tuple_idp,
    level_status,
)
from .reproduce import EXAMPLE_NAMES, reproduce_example

# property name -> (number of polytope files or None for any, the bound flag
# its decider takes or None, decider of (polytopes, bound)).  The deciders are
# looked up at call time, so rebinding a module attribute (as a tracer does)
# reaches calls made through this table.
CHECKS = {
    "idp": (1, "max_degree", lambda Ps, b: is_idp(Ps[0], b)),
    "tuple-idp": (None, None, lambda Ps, b: is_tuple_idp(Ps)),
    "2cn": (1, None, lambda Ps, b: is_2_convex_normal(Ps[0])),
    "cond01": (1, None, lambda Ps, b: has_interior_translate_cover(Ps[0])),
    "level": (1, "horizon", lambda Ps, b: level_status(Ps[0], b)),
    "gorenstein": (1, "horizon", lambda Ps, b: is_gorenstein(Ps[0], b)),
    "edge-criterion": (1, None, lambda Ps, b: edge_length_criterion(Ps[0])),
}

# the covering properties print their verdicts as covered / not-covered
_COVER_WORDS = {Verdict.HOLDS.value: "covered", Verdict.FAILS.value: "not-covered"}


def _pretty(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, tuple):
        inner = ", ".join(_pretty(e) for e in x)
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    return str(x)


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    text = json.dumps(
        {**doc, "version": __version__, "timestamp": _timestamp()}, indent=2, sort_keys=True
    )
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    if getattr(args, "format", "text") == "json":
        print(text)
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# check


def _run_check(args) -> int:
    prop = args.property
    files, bound, decide = CHECKS[prop]
    for flag in ("max_degree", "horizon"):
        if flag != bound and getattr(args, flag) is not None:
            raise UsageError(f"property {prop} takes no --{flag.replace('_', '-')}")
    Ps = [load_polytope(p) for p in args.paths]
    if files is not None and len(Ps) != files:
        raise UsageError(f"property {prop} takes exactly one polytope file")
    rep = decide(Ps, getattr(args, bound) if bound else None)
    doc = rep.to_dict()
    if prop in ("2cn", "cond01"):
        doc["verdict"] = _COVER_WORDS[doc["verdict"]]
    doc["config"] = {
        "paths": list(args.paths),
        "property": prop,
        "max_degree": args.max_degree,
        "horizon": args.horizon,
    }
    lines = [f"property: {prop}", f"verdict: {doc['verdict']}"]
    if rep.witness is not None:
        lines.append(f"witness: {_pretty(rep.witness)}")
    degrees = rep.degrees_checked
    if degrees is not None:
        lines.append(f"degrees checked: {degrees[0]}..{degrees[1]}")
        if prop in ("level", "gorenstein"):
            lines.append(f"level index: {degrees[0]}")
    if rep.horizon_used is not None:
        lines.append(f"horizon: {rep.horizon_used}")
    _emit(args, doc, lines)
    return 1 if rep.verdict is Verdict.FAILS else 0


# ---------------------------------------------------------------------------
# construct / random


def _run_construct(args) -> int:
    Ps = [load_polytope(p) for p in args.paths]
    if args.operation == "dilate":
        if len(Ps) != 1:
            raise UsageError("dilate takes exactly one polytope file")
        if args.factor is None or args.factor < 0:
            raise UsageError("dilate needs --factor with a nonnegative integer")
        Q = dilate(Ps[0], args.factor)
    elif args.operation == "minkowski":
        if len(Ps) < 2:
            raise UsageError("minkowski needs at least two polytope files")
        Q = minkowski_sum(Ps)
    else:
        if len(Ps) < 2:
            raise UsageError("cayley needs at least two polytope files")
        Q = cayley_sum(Ps)
    save_polytope(Q, args.out, name=args.name)
    print(f"wrote {args.out}: ambient_dim {Q.ambient_dim}, dim {Q.dim}, "
          f"{len(Q.vertices)} vertices")
    return 0


def _run_random(args) -> int:
    P = random_lattice_polytope(
        args.seed, args.ambient_dim, args.dim, args.coord_bound, args.n_points
    )
    save_polytope(P, args.out)
    print(f"wrote {args.out}: dim {P.dim}, vertices {list(P.vertices)}")
    return 0


# ---------------------------------------------------------------------------
# reproduce / verify


def _campaign_lines(rep: CampaignReport) -> list[str]:
    lines = [
        f"campaign: {rep.theorem_id}",
        f"trials run: {rep.trials_run}",
        f"violations: {len(rep.violations)}",
    ]
    for v in rep.violations:
        lines.append(f"  trial {v.trial}: {v.note}")
        if v.report is not None and v.report.witness is not None:
            lines.append(f"    witness: {v.report.witness}")
    for note in rep.notes:
        lines.append(f"note: {note}")
    return lines


def _run_reproduce(args) -> int:
    params = tuple(args.params) if args.params else None
    rep = reproduce_example(args.name, params)
    _emit(args, rep.to_dict(), _campaign_lines(rep))
    return 0 if rep.ok else 1


def _run_verify(args) -> int:
    config = CampaignConfig(
        theorem_id=args.theorem_id,
        trials=args.trials,
        seed=args.seed,
        dim_max=args.dim_max,
        coord_bound=args.coord_bound,
        dilation_bound=args.dilation_bound,
    )
    rep = verify_theorem(config)
    _emit(args, rep.to_dict(), _campaign_lines(rep))
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# parser


class UsageError(Exception):
    pass


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="stdout rendering (default text)")
    p.add_argument("--out", metavar="PATH",
                   help="also write the JSON report to this file")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="latcayley",
        description="Exact deciders and campaigns for Minkowski and Cayley sums "
        "of lattice polytopes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide a property of polytope files")
    c.add_argument("paths", nargs="+", metavar="POLYTOPE.json")
    c.add_argument("--property", required=True, choices=CHECKS)
    c.add_argument("--max-degree", type=int, default=None)
    c.add_argument("--horizon", type=int, default=None)
    _add_io_flags(c)
    c.set_defaults(func=_run_check)

    k = sub.add_parser("construct", help="build a new polytope file")
    k.add_argument("operation", choices=("minkowski", "cayley", "dilate"))
    k.add_argument("paths", nargs="+", metavar="POLYTOPE.json")
    k.add_argument("--factor", type=int, default=None, help="dilate factor")
    k.add_argument("--name", default=None, help="name stored in the output file")
    k.add_argument("--out", required=True, metavar="PATH")
    k.set_defaults(func=_run_construct)

    r = sub.add_parser("reproduce", help="re-derive a documented counterexample family")
    r.add_argument("name", choices=EXAMPLE_NAMES)
    r.add_argument("--params", type=int, nargs=2, metavar=("A", "B"), default=None)
    _add_io_flags(r)
    r.set_defaults(func=_run_reproduce)

    v = sub.add_parser("verify", help="run a randomized theorem campaign")
    v.add_argument("theorem_id", choices=THEOREM_IDS)
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--dim-max", type=int, default=CampaignConfig.dim_max)
    v.add_argument("--coord-bound", type=int, default=CampaignConfig.coord_bound)
    v.add_argument("--dilation-bound", type=int, default=CampaignConfig.dilation_bound,
                   help="height total of lemma_1_1/lemma_1_2 and Minkowski-sum box of thm_0_4_equiv")
    _add_io_flags(v)
    v.set_defaults(func=_run_verify)

    g = sub.add_parser("random", help="generate a seeded random polytope file")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--ambient-dim", type=int, required=True)
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--coord-bound", type=int, default=4)
    g.add_argument("--n-points", type=int, default=None)
    g.add_argument("--out", required=True, metavar="PATH")
    g.set_defaults(func=_run_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # an OSError here is a failed write: load_polytope turns read errors into
    # PolytopeFileError
    except (UsageError, PolytopeFileError, GeometryError, CellBudgetExceeded, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
