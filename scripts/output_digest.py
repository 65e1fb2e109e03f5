"""Print one SHA-256 per section of latcayley's observable output.

Two commits print the same digests exactly when their outputs agree on:

- ``fixtures``: ``latcayley check`` on every fixture, for every property in
  ``cli.CHECKS``, in text and in json format, plus ``tuple-idp`` on the
  ex19 and ex24 factor pairs (stdout, stderr and exit code);
- ``random``: every ``cli.CHECKS`` decider on the 200 seeded random polytopes
  of acceptance criterion 9;
- ``reproduce``: ``latcayley reproduce`` on each documented example;
- ``campaigns``: every theorem campaign at two seeds;
- ``covers``: 1000 seeded direct ``CoverageQuery``s in both modes, in
  ambient dimensions 1-3, with dilate, Minkowski-sum and random targets,
  lower-dimensional bases in closed mode and random nonempty shift subsets;
- ``covers4d``: ``is_2_convex_normal`` and ``has_interior_translate_cover``
  on the 4-polytope ``P4`` dilated 2x and 3x, and 16 seeded queries in
  dimension 4, alternating modes, that cover a dilate ``kB`` (k = 2, 3) by
  translates of ``B`` by all or some lattice points of ``(k-1)B``;
- ``hulls``: ``convex_hull`` and ``affine_hull`` on 1000 seeded point sets:
  dense planar sets and sums of three polygons, sets in dimensions 3-5, sets
  on a hyperplane and Cayley-type sets at unit heights, collinear sets, and
  sets with ``Fraction`` coordinates, each with duplicates, in random order;
- ``enumeration``: ``lattice_points`` and ``interior_lattice_points`` of 200
  seeded polytopes in ambient dimensions 1-5 (full-dimensional, translated
  lower-dimensional, Cayley sums of two factors, and doubled bases, whose
  primitive base comes last), at dilates 0-4 in a mixed order, so that later
  dilates and modes reuse the projection rows the first one cached;
- ``sums``: the full description of ``minkowski_sum`` of dilates of 200
  seeded factor tuples (1-3 factors in ambient dimensions 1-4, of every
  dimension, some translated), for every coefficient vector in {0, 1, 2}^m
  in a shuffled order, so that later sums reuse the hull the first one with
  the same positive support cached.

Timestamps are stripped before hashing.  To compare two commits, run it
against each checkout and diff the output:

    PYTHONPATH=src python scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

from latcayley import (
    CampaignConfig,
    CoverageQuery,
    PointSet,
    cayley_sum,
    dilate,
    from_vertices,
    interior_lattice_points,
    lattice_points,
    minkowski_sum,
    random_lattice_polytope,
    translate,
    verify_theorem,
)
from latcayley import covering  # the module: ``covers`` names a section here
from latcayley.campaigns import THEOREM_IDS
from latcayley.cli import CHECKS, main
from latcayley.geometry import (
    CellBudgetExceeded,
    GeometryError,
    Mode,
    affine_hull,
    convex_hull,
    vec_sub,
)
from latcayley.reproduce import EXAMPLE_NAMES

ROOT = Path(__file__).resolve().parent.parent
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return TIMESTAMP.sub('"timestamp": ""', f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}")


def _report(decide, *args) -> str:
    try:
        return json.dumps(decide(*args).to_dict(), sort_keys=True)
    except (GeometryError, CellBudgetExceeded) as e:  # a refusal is output too
        return f"{type(e).__name__}: {e}"


def fixtures():
    names = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    for name in names:
        for prop in CHECKS:
            for fmt in ("text", "json"):
                yield _cli(["check", "--property", prop, f"fixtures/{name}", "--format", fmt])
    for ex in ("ex19", "ex24"):
        for fmt in ("text", "json"):
            pair = [f"fixtures/{ex}_p1.json", f"fixtures/{ex}_p2.json"]
            yield _cli(["check", "--property", "tuple-idp", *pair, "--format", fmt])


def random():
    for seed in range(200):
        dim = 1 + seed % 3
        P = random_lattice_polytope(seed, dim, dim, coord_bound=2)
        for prop, (_, _, decide) in CHECKS.items():
            yield f"{seed} {prop} {_report(decide, [P], None)}"


def reproduce():
    for name in EXAMPLE_NAMES:
        yield _cli(["reproduce", name, "--format", "json"])


def campaigns():
    for seed in (0, 1):
        for theorem_id in THEOREM_IDS:
            cfg = CampaignConfig(theorem_id, trials=4, seed=seed, dim_max=2, coord_bound=3)
            yield json.dumps(verify_theorem(cfg).to_dict(), sort_keys=True)


def _cover_query(rng: Random, i: int) -> CoverageQuery:
    ambient = 1 + i % 3
    mode = Mode.CLOSED if i % 2 == 0 else Mode.RELATIVE_INTERIOR
    # a base thinner than the target reaches the thin-translate cut in closed
    # mode and is refused in relative-interior mode
    thin = ambient > 1 and rng.random() < (0.5 if mode is Mode.CLOSED else 0.1)
    bdim = rng.randint(1, ambient - 1) if thin else ambient
    bound = 2 if ambient < 3 else 1
    base = random_lattice_polytope(rng.randrange(2**30), ambient, bdim, bound)
    kind = i // 6 % 3
    # a full-dimensional summand makes a thin base's translates meet every
    # lattice point of the sum more often, so that subtraction has to decide
    odim = ambient if kind == 1 else rng.randint(0, ambient)
    other = random_lattice_polytope(rng.randrange(2**30), ambient, odim, bound)
    if kind == 0:
        k = rng.randint(2, 3)
        target, pool = dilate(base, k), lattice_points(dilate(base, k - 1)).points
    elif kind == 1:
        target, pool = minkowski_sum([base, other]), lattice_points(other).points
    else:
        target = other
        pool = sorted({vec_sub(x, b) for x in lattice_points(other) for b in lattice_points(base)})
    k = len(pool) if rng.random() < 0.5 else rng.randint(1, len(pool))
    shifts = PointSet(ambient, tuple(sorted(rng.sample(pool, k))))
    return CoverageQuery(target, base, shifts, mode)


def covers():
    rng = Random(0)
    for i in range(1000):
        yield f"{i} {_report(covering.covers, _cover_query(rng, i))}"


# conv of these 7 points: 8 lattice points and 9 facets
P4 = [(-1, 0, -1, 1), (-1, 0, 0, 1), (0, 1, -1, 0), (1, -1, 0, -1), (1, 0, 0, -1), (1, 0, 1, -1), (1, 1, -1, 0)]


def covers4d():
    P = from_vertices(P4)
    for k in (2, 3):
        for decide in (covering.is_2_convex_normal, covering.has_interior_translate_cover):
            yield f"{k}P4 {_report(decide, dilate(P, k))}"
    rng = Random(0)
    for i in range(16):
        mode = Mode.CLOSED if i % 2 == 0 else Mode.RELATIVE_INTERIOR
        base = random_lattice_polytope(rng.randrange(2**30), 4, 4, coord_bound=1)
        k = rng.randint(2, 3)
        pool = lattice_points(dilate(base, k - 1)).points
        shifts = pool if rng.random() < 0.5 else sorted(rng.sample(pool, rng.randint(1, len(pool))))
        q = CoverageQuery(dilate(base, k), base, PointSet(4, tuple(shifts)), mode)
        yield f"{i} {_report(covering.covers, q)}"


def _hull_points(rng: Random, i: int) -> list:
    kind = i % 6
    n = 2 if kind < 2 else rng.randint(3, 5)

    def box(r: int, k: int) -> list:  # k random points of [-r, r]^n
        return [tuple(rng.randint(-r, r) for _ in range(n)) for _ in range(k)]

    if kind == 0:  # dense planar
        pts = box(5, rng.randint(20, 80))
    elif kind == 1:  # three polygons summed: mostly interior candidates
        pts = [tuple(map(sum, zip(*ps))) for ps in product(*(box(3, 5) for _ in range(3)))]
    elif kind == 2:
        pts = box(3, rng.randint(n + 1, 14))
    elif kind == 3:  # on a hyperplane, or Cayley-type at unit heights
        pts = box(3, rng.randint(2, 12))
        if rng.random() < 0.5:
            a = [rng.randint(-2, 2) for _ in range(n - 1)]
            pts = [p[:-1] + (sum(x * y for x, y in zip(a, p)) + 1,) for p in pts]
        else:
            m = rng.randint(2, n - 1)
            pts = [tuple(int(j == p[0] % m) for j in range(m)) + p[m:] for p in pts]
    elif kind == 4:  # collinear
        base, step = box(3, 2)
        pts = [tuple(b + t * s for b, s in zip(base, step)) for t in rng.sample(range(-4, 5), rng.randint(1, 6))]
    else:
        pts = [tuple(Fraction(x, rng.randint(1, 4)) for x in p) for p in box(3, rng.randint(1, 12))]
    pts += rng.choices(pts, k=rng.randint(0, 3))
    rng.shuffle(pts)
    return pts


def hulls():
    rng = Random(0)
    for i in range(1000):
        pts = _hull_points(rng, i)
        yield f"{i} {convex_hull(pts)!r} {affine_hull(pts)!r}"


def _enumeration_bases(rng: Random, i: int) -> list:
    """One seeded polytope, preceded by its double for a doubled base."""
    ambient = 1 + i % 5
    kind = i // 5 % 4
    bound = 2 if ambient < 4 else 1

    def rand(n: int, dim: int):
        return random_lattice_polytope(rng.randrange(2**30), n, dim, bound)

    if kind == 1:  # lower-dimensional, moved off the coordinate subspace
        shift = tuple(rng.randint(-3, 3) for _ in range(ambient))
        return [translate(rand(ambient, rng.randint(0, ambient - 1)), shift)]
    if kind == 2 and ambient >= 3:
        return [cayley_sum([rand(ambient - 2, rng.randint(0, ambient - 2)) for _ in range(2)])]
    P = rand(ambient, ambient)
    return [dilate(P, 2), P] if kind == 3 else [P]


def enumeration():
    rng = Random(0)
    for i in range(200):
        for j, P in enumerate(_enumeration_bases(rng, i)):
            for t in (2, 4, 0, 1, 3):
                for name, points in (("closed", lattice_points), ("relint", interior_lattice_points)):
                    yield f"{i} {j} {t} {name} {points(dilate(P, t)).points}"


def _sum_factors(rng: Random, i: int) -> list:
    ambient = 1 + i % 4
    bound = 2 if ambient < 4 else 1
    factors = []
    for _ in range(1 + i // 4 % 3):
        P = random_lattice_polytope(rng.randrange(2**30), ambient, rng.randint(0, ambient), bound)
        if rng.random() < 0.3:
            P = translate(P, tuple(rng.randint(-2, 2) for _ in range(ambient)))
        factors.append(P)
    return factors


def sums():
    rng = Random(0)
    for i in range(200):
        factors = _sum_factors(rng, i)
        coeffs = list(product(range(3), repeat=len(factors)))
        rng.shuffle(coeffs)
        for a in coeffs:
            yield f"{i} {a} {minkowski_sum([dilate(P, x) for P, x in zip(factors, a)]).desc!r}"


def digest(section) -> str:
    """The SHA-256 of one section's records, each followed by a NUL byte."""
    h = hashlib.sha256()
    for record in section():
        h.update(record.encode("utf-8") + b"\0")
    return h.hexdigest()


def run() -> None:
    os.chdir(ROOT)
    for section in (fixtures, random, reproduce, campaigns, covers, covers4d, hulls, enumeration, sums):
        print(f"{section.__name__:10s} {digest(section)}")


if __name__ == "__main__":
    run()
