import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from latcayley import from_vertices, load_polytope
from latcayley.geometry import GeometryError, IntVec, Scalar, _echelon, norm_scalar
from latcayley.polytope import _ENUMERATION_CACHES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


def load_fixture(name: str):
    return load_polytope(fixture_path(name))


def all_fixture_names() -> list[str]:
    return sorted(p.stem for p in FIXTURES.glob("*.json"))


def rank(rows) -> int:
    """Rank of a rational matrix, from the library's fraction-free elimination."""
    return len(_echelon(rows)[1])


def primitive(v):
    """Scale a nonzero rational vector to a primitive integer vector (sign kept)."""
    denom = math.lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = math.gcd(*ints)
    if g == 0:
        raise GeometryError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


class Plane(NamedTuple):
    """The hyperplane {x : normal . x = offset}, equal to the library's (normal, offset) pair."""

    normal: IntVec
    offset: Scalar


def hyperplane_through(normal, offset) -> Plane:
    """The canonical Plane {x : normal . x = offset} of any rational pair: primitive
    normal with positive leading entry, as a DualDescription's equalities have."""
    prim = primitive(normal)
    lead = next(i for i, x in enumerate(prim) if x)
    scale = Fraction(prim[lead]) / Fraction(normal[lead])  # prim = scale * normal, scale > 0
    if prim[lead] < 0:
        prim, scale = tuple(-x for x in prim), -scale
    return Plane(prim, norm_scalar(Fraction(offset) * scale))


def barycenter(points):
    """Exact average of a nonempty list of equal-length points."""
    k = len(points)
    return tuple(norm_scalar(Fraction(sum(c), k)) for c in zip(*points))


def run_optimized(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` under ``python -O``, which strips every ``assert``."""
    src = str(FIXTURES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="session")
def unit_square():
    return load_fixture("unit_square")


@pytest.fixture(scope="session")
def unit_cube():
    return load_fixture("unit_cube")


@pytest.fixture(scope="session")
def simplex_2d():
    return load_fixture("simplex_2d")


@pytest.fixture(scope="session")
def reeve():
    return load_fixture("reeve")


@pytest.fixture(scope="session")
def segment():
    # [0, 3] on the line
    return load_fixture("segment")


@pytest.fixture
def cold_enumeration_cache():
    """Empty the enumeration caches, the projection row cache and the sum
    template cache, so the next call enumerates and sums afresh."""
    for cache in _ENUMERATION_CACHES:
        cache.cache_clear()


def seg(a, b):
    return from_vertices([a, b])


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
