"""Exact rational linear algebra and convex geometry in small dimensions.

Coordinates are Python ints or ``fractions.Fraction``; nothing here touches
floating point, so every predicate is a decision, not an estimate.  All public
objects are immutable and all functions are pure, so they are safe to call
concurrently.

Kernels go through one fraction-free Gauss-Jordan elimination over the
integers, ``_echelon``; affine hulls go through one greedy independence pass,
``_simplex``.  ``convex_hull`` is the one hull routine, in exact integers:
segments and polygons are read off sorted order, and beneath-beyond insertion
takes dimension 3 and up, as described there.

A polytope is described by its vertices and two kinds of constraint, both
``(u, c)`` pairs of a primitive integer normal ``u`` and an offset ``c``:
facets, ``u.x <= c`` with ``u`` outward, and equalities, ``u.x = c`` with the
first nonzero entry of ``u`` positive, each kind sorted.
"""

from __future__ import annotations

import math
import operator
import os
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

Scalar = int | Fraction
Vec = tuple[Scalar, ...]
IntVec = tuple[int, ...]
# A constraint (primitive integer normal u, offset c): u.x <= c as a facet,
# u.x = c as an equality.
Constraint = tuple[IntVec, Scalar]

DEFAULT_CELL_BUDGET = 10**6
CELL_BUDGET_ENV = "LATCAYLEY_CELL_BUDGET"


class GeometryError(ValueError):
    pass


class DimensionMismatch(GeometryError):
    pass


class CellBudgetExceeded(RuntimeError):
    """A convex hull, a covering subtraction or a lattice point enumeration outgrew the configured budget."""


class Mode(Enum):
    CLOSED = "closed"
    RELATIVE_INTERIOR = "relative_interior"


def cell_budget() -> int:
    return _parse_budget(os.environ.get(CELL_BUDGET_ENV))


@lru_cache(maxsize=8)  # each raw value is parsed once; a refusal is not cached, so it raises on every call
def _parse_budget(raw: str | None) -> int:
    if raw is None:
        return DEFAULT_CELL_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise GeometryError(f"{CELL_BUDGET_ENV} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise GeometryError(f"{CELL_BUDGET_ENV} must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# scalar and vector helpers


def norm_scalar(x: Scalar) -> Scalar:
    if type(x) is int:  # skips isinstance, slow as Fraction's metaclass is ABCMeta; a bool falls through
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def dot(a: Vec, b: Vec) -> Scalar:
    return sum(map(operator.mul, a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(norm_scalar(x - y) for x, y in zip(a, b))


def is_integer_vec(v: Vec) -> bool:
    """True iff every entry is an int or an integral Fraction; bool is not a number here."""
    return all(
        (isinstance(x, int) and not isinstance(x, bool)) or (isinstance(x, Fraction) and x.denominator == 1)
        for x in v
    )


def _lex_sign(v: IntVec) -> int:
    for x in v:
        if x:
            return 1 if x > 0 else -1
    return 0


# ---------------------------------------------------------------------------
# exact Gaussian elimination


def _echelon(rows: list[Vec]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Each row is cleared of denominators, then every pivot is eliminated from
    all other rows over the integers, and each new row is divided by its gcd
    (a fraction-free scheme in the spirit of Bareiss, 1968).  Returns the
    nonzero reduced rows, each primitive with a positive pivot, and their
    pivot columns.  Each row is the RREF row scaled by a positive integer, so
    the result is canonical for the row space.
    """
    mat = []
    for row in rows:
        d = math.lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (d // x.denominator) for x in row])
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        top = mat[p]
        g = math.gcd(*top) if top[c] > 0 else -math.gcd(*top)
        top = [x // g for x in top]
        mat[p] = mat[r]
        mat[r] = top
        for i, row in enumerate(mat):
            b = row[c]
            if b and i != r:
                new = [top[c] * x - b * y for x, y in zip(row, top)]
                g = math.gcd(*new)
                mat[i] = [x // g for x in new] if g else new
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat[: len(pivots)], pivots


def nullspace(rows: list[Vec], ncols: int) -> list[IntVec]:
    """Canonical primitive integer basis of {v : row . v = 0 for all rows}.

    One vector per free column f: x_f = L, the lcm of the pivots, the other
    free coordinates 0, and each pivot coordinate solved from its reduced
    row; the vector is then made primitive and lexicographically positive.
    """
    red, pivots = _echelon(rows)
    lcm = math.lcm(*(row[p] for row, p in zip(red, pivots)))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = lcm
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (lcm // row[p])
        g = math.gcd(*v) * _lex_sign(v)
        basis.append(tuple(x // g for x in v))
    return basis


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class DualDescription:
    """Canonical vertex + facet + affine-hull description of a bounded polytope.

    Facets are pairs (u, c) for u.x <= c and equalities pairs (u, c) for
    u.x = c, each u a primitive integer normal, both kinds sorted.
    Invariants: vertices are lexicographically sorted and irredundant; facet
    normals lie in the direction space of the affine hull and point outward;
    equalities are the canonical (RREF-derived) cutting hyperplanes of the
    affine hull, each normal's first nonzero entry positive;
    dim + len(equalities) == ambient_dim and dim < len(vertices), the affine
    rank of the vertices being trusted from their builder, ``convex_hull``.
    Structural equality therefore decides equality of the underlying sets.
    """

    ambient_dim: int
    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Constraint, ...]
    equalities: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        verts = tuple(tuple(norm_scalar(x) for x in v) for v in self.vertices)
        facets = tuple((tuple(n), norm_scalar(c)) for n, c in self.facets)
        eqs = tuple((tuple(n), norm_scalar(c)) for n, c in self.equalities)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "equalities", eqs)
        for n, _ in eqs:
            if not any(n):
                raise GeometryError("equality normal must be nonzero")
            if any(not isinstance(x, int) for x in n):
                raise GeometryError("equality normal must be integral")
            if math.gcd(*n) != 1:
                raise GeometryError("equality normal must be primitive")
            if _lex_sign(n) < 0:
                raise GeometryError("equality normal must have positive leading entry")
        if not verts:
            raise GeometryError("a polytope needs at least one vertex")
        if any(len(v) != self.ambient_dim for v in verts):
            raise DimensionMismatch("vertex length disagrees with ambient_dim")
        if self.dim + len(self.equalities) != self.ambient_dim:
            raise GeometryError("dim + number of equalities must equal ambient_dim")
        if self.dim >= len(verts):
            raise GeometryError("a polytope of dimension d needs at least d + 1 vertices")

    @property
    def is_lattice(self) -> bool:
        return all(is_integer_vec(v) for v in self.vertices)


# ---------------------------------------------------------------------------
# affine hulls and convex hulls


def _validate_points(points) -> list[Vec]:
    pts = [tuple(p) for p in points]
    if not pts:
        raise GeometryError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("points have mixed ambient dimensions")
    if not all(isinstance(x, (int, Fraction)) for p in pts for x in p):
        raise GeometryError("coordinates must be ints or Fractions")
    return pts


def _simplex(pts: list[Vec]) -> tuple[int, list[IntVec], list[int], tuple[Constraint, ...]]:
    """One greedy pass over a point set for its affine hull and a starting simplex.

    The points are scaled by the lcm L of their denominators to integers, and
    each edge vector p - pts[0] is reduced, fraction-free, against the rows
    taken so far; a nonzero remainder is a new row.  Returns L, the scaled
    points, the indices taken (pts[0] first; one more than the dimension) and
    the equalities, whose normals are the reduced echelon rows of the
    orthogonal complement of the rows, so they depend only on the subspace.
    """
    scale = math.lcm(*(x.denominator for p in pts for x in p))
    ipts = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in pts]
    base, n = ipts[0], len(ipts[0])
    simplex = [0]
    rows: list[tuple[int, list[int]]] = []  # (pivot column, row)
    for i in range(1, len(ipts)):
        if len(rows) == n:
            break
        e = [a - b for a, b in zip(ipts[i], base)]
        for c, row in rows:
            if e[c]:
                e = [row[c] * x - e[c] * y for x, y in zip(e, row)]
        if any(e):
            g = math.gcd(*e)
            rows.append((next(c for c, x in enumerate(e) if x), [x // g for x in e]))
            simplex.append(i)
    red = _echelon(nullspace([row for _, row in rows], n))[0] if len(rows) < n else []  # rows span R^n: no equality
    eqs = sorted((tuple(row), norm_scalar(dot(row, pts[0]))) for row in red)
    return scale, ipts, simplex, tuple(eqs)


def affine_hull(points) -> tuple[int, tuple[Constraint, ...]]:
    """Dimension and canonical equalities (u, c), u.x = c, of the affine hull, whatever the input order."""
    _, _, simplex, eqs = _simplex(_validate_points(points))
    return len(simplex) - 1, eqs


def _beneath_beyond(
    pts: list[IntVec], simplex: list[int], eq_normals: list[IntVec]
) -> dict[tuple[int, ...], tuple[IntVec, int]]:
    """Simplicial boundary of conv(pts), distinct integer points whose affine
    hull the starting simplex spans: sorted corner indices of each boundary
    simplex -> its outward primitive normal u and offset c, with u.x <= c on
    the hull.  Right in every dimension; ``convex_hull`` calls it from 3.

    The other points go in farthest first from the simplex's barycenter, so
    extreme points go in early and those they enclose drop after one
    visibility scan.  A point strictly beyond some boundary simplex is coned
    to the horizon ridges (those whose other simplex it does not see).  Only
    the starting facets are solved for, as the columns of one inverse; a new
    simplex rotates about its horizon ridge (the gift-wrapping pivot of Chand
    & Kapur, JACM 1970): for the visible simplex (u_v, c_v) and the other one
    (u_i, c_i), (u_v.p - c_v) u_i + (c_i - u_i.p) u_v is a positive combination
    of outward normals, tight on the ridge and at p, so over its gcd it is the
    new normal.  As p is off the visible simplex's hyperplane, it is off the
    span of each of its ridges, so no new simplex is degenerate.
    """
    dim = len(simplex) - 1
    # (dim+1) times the barycenter of the first simplex: strictly inside every later hull
    inner = [sum(c) for c in zip(*(pts[i] for i in simplex))]

    def spread(i: int) -> int:  # (dim+1)^2 times the squared distance from the barycenter
        return sum(((dim + 1) * x - y) ** 2 for x, y in zip(pts[i], inner))

    # Column j of L M^-1, M the edges p_j - p_0 over the equality normals and L the lcm of the
    # pivots of [M | I], is orthogonal to every other row of M: it is normal to the facet
    # opposite p_j.  Minus the sum of the edge columns is normal to the facet opposite p_0.
    rows = [[a - b for a, b in zip(pts[i], pts[simplex[0]])] for i in simplex[1:]] + eq_normals
    red, _ = _echelon([[*row, *(int(i == j) for j in range(len(rows)))] for i, row in enumerate(rows)])
    lcm = math.lcm(*(row[r] for r, row in enumerate(red)))
    inv = [[x * (lcm // row[r]) for x in row[len(rows):]] for r, row in enumerate(red)]
    cols = [[-sum(row[:dim]) for row in inv]] + [[row[j] for row in inv] for j in range(dim)]
    boundary = {}
    for u, corners in zip(reversed(cols), combinations(simplex, dim)):  # corners omit simplex[dim], ..., simplex[0]
        g = math.gcd(*u)
        u = tuple(x // g for x in u)
        c = dot(u, pts[corners[0]])
        boundary[corners] = (tuple(-x for x in u), -c) if dot(u, inner) > (dim + 1) * c else (u, c)
    ridges: defaultdict[tuple[int, ...], list] = defaultdict(list)  # ridge -> the boundary simplices on it
    for s in boundary:
        for ridge in combinations(s, dim - 1):
            ridges[ridge].append(s)
    rest = [i for i in range(len(pts)) if i not in simplex]
    for i in sorted(rest, key=spread, reverse=True):  # farthest first
        p = pts[i]
        seen = {s: d for s, (u, c) in boundary.items() if (d := dot(u, p) - c) > 0}
        cone = []
        for s, dv in seen.items():
            uv, _ = boundary.pop(s)
            for ridge in combinations(s, dim - 1):
                pair = ridges[ridge]
                pair.remove(s)
                if pair and pair[0] not in seen:  # on the horizon: rotate about it to p
                    ui, ci = boundary[pair[0]]
                    di = ci - dot(ui, p)
                    u = [dv * a + di * b for a, b in zip(ui, uv)]
                    g = math.gcd(*u)
                    cone.append((tuple(sorted(ridge + (i,))), tuple(x // g for x in u)))
        for corners, u in cone:
            boundary[corners] = (u, dot(u, p))
            for ridge in combinations(corners, dim - 1):
                ridges[ridge].append(corners)
    return boundary


def _ring(pts: list[IntVec], simplex: list[int]) -> list[int]:
    """Vertex indices, in cyclic order, of a polygon of distinct integer points whose plane the starting
    simplex spans: Andrew's monotone chain (Information Processing Letters 9, 1979), with strict turns so
    points on an edge drop, over the first chart (x_i, x_j) where the simplex's edges have a nonzero minor."""
    a, b, c = (pts[k] for k in simplex)
    i, j = next((i, j) for i, j in combinations(range(len(a)), 2)
                if (b[i] - a[i]) * (c[j] - a[j]) != (b[j] - a[j]) * (c[i] - a[i]))
    xy = [(p[i], p[j]) for p in pts]
    order = sorted(range(len(pts)), key=xy.__getitem__)

    def chain(seq) -> list[int]:  # one half of the ring, without its last point
        out: list[int] = []
        for k in seq:
            x, y = xy[k]
            while len(out) > 1:
                (ox, oy), (px, py) = xy[out[-2]], xy[out[-1]]
                if (px - ox) * (y - oy) > (py - oy) * (x - ox):  # a left turn at out[-1]
                    break
                out.pop()
            out.append(k)
        return out[:-1]

    return chain(order) + chain(reversed(order))


def convex_hull(points) -> DualDescription:
    """Canonical dual description of the convex hull of finitely many points.

    Facet normals are chosen inside the direction space of the affine hull
    (orthogonal to every equality normal), which makes them unique up to the
    primitive-outward normalization.

    One greedy pass (``_simplex``) scales the distinct points by the lcm L of
    their denominators to integers and gives the dimension, the equalities and
    a starting simplex.  A segment's ends are its first and last points, and
    ``_ring`` reads a polygon's vertex cycle off sorted order.  For its edge
    a -> b, c the vertex before a, t = b - a and v = c - a, u = (t.v) t - (t.t) v
    is in the plane, orthogonal to t, and u.v < 0 (Cauchy-Schwarz): over its
    gcd, the edge's outward primitive normal.  A segment's cycle is its two
    ends, so v = t, and its normals are +-t.  From dimension 3,
    ``_beneath_beyond`` gives a simplicial boundary, whose coplanar simplices
    are merged by (normal, offset); each corner gets the bitmask of the facets
    it lies on.  A corner is a vertex iff no other corner's mask contains its
    own: a non-vertex lies in the relative interior of a face with another
    vertex, which is a corner tight on every facet the first is tight on, and a
    vertex is the intersection of its facets, so no other point is tight on all
    of them.  Offsets are divided by L.  Raises CellBudgetExceeded when the
    distinct candidate points outnumber the cell budget (LATCAYLEY_CELL_BUDGET).
    """
    pts = _validate_points(points)
    n = len(pts[0])
    cand = sorted(set(pts))
    budget = cell_budget()
    if len(cand) > budget:
        raise CellBudgetExceeded(
            f"convex hull of {len(cand)} distinct points exceeds the budget of {budget}; "
            f"raise {CELL_BUDGET_ENV} to allow more"
        )
    scale, ipts, simplex, eqs = _simplex(cand)
    dim = len(simplex) - 1
    if dim == 0:
        return DualDescription(n, 0, (cand[0],), (), eqs)
    if dim < 3:
        verts, bounds = [0, len(cand) - 1] if dim == 1 else _ring(ipts, simplex), []
        for c, a, b in zip(verts[-2:] + verts, verts[-1:] + verts, verts):
            t, v = [y - x for x, y in zip(ipts[a], ipts[b])], [y - x for x, y in zip(ipts[a], ipts[c])]
            tv, tt = dot(t, v), dot(t, t)
            u = [tv * x - tt * y for x, y in zip(t, v)] if c != b else t
            g = math.gcd(*u)
            u = tuple(x // g for x in u)
            bounds.append((u, dot(u, ipts[b])))
    else:
        boundary = _beneath_beyond(ipts, simplex, [u for u, _ in eqs])
        bits: dict[IntVec, int] = {}  # one bit per merged facet
        masks: defaultdict[int, int] = defaultdict(int)  # corner -> its facets
        for corners, (normal, _) in boundary.items():
            bit = bits.setdefault(normal, 1 << len(bits))
            for i in corners:
                masks[i] |= bit
        verts = [i for i, m in masks.items() if not any(j != i and k & m == m for j, k in masks.items())]
        bounds = boundary.values()
    facets = {(normal, c if scale == 1 else norm_scalar(Fraction(c, scale))) for normal, c in bounds}
    return DualDescription(n, dim, tuple(cand[i] for i in sorted(verts)), tuple(sorted(facets)), eqs)


def contains(desc: DualDescription, x: Vec, mode: Mode = Mode.CLOSED) -> bool:
    """Exact membership test; RelativeInterior of a point is that point."""
    if len(x) != desc.ambient_dim:
        raise DimensionMismatch(
            f"point has length {len(x)}, polytope lives in dimension {desc.ambient_dim}"
        )
    for normal, c in desc.equalities:
        if dot(normal, x) != c:
            return False
    if mode is Mode.CLOSED:
        return all(dot(normal, x) <= c for normal, c in desc.facets)
    return all(dot(normal, x) < c for normal, c in desc.facets)


def constraint_rows(desc: DualDescription) -> tuple[tuple[IntVec, Scalar, bool], ...]:
    """The rows u.x <= c of desc, as (u, c, is_facet): each equality u.x = c
    gives (-u, -c) then (u, c), and the facets follow.

    The covering subtraction carves a translate out of a piece row by row, in
    this order.  A translate thinner than its target has an equality varying
    there.  Its row (-u, -c) comes first and splits the piece into the branch
    u.x <= c and the rest, u.x >= c; its row (u, c) returns that rest whole as
    the second branch, so nothing is left to cut: the piece is split along the
    hyperplane, <= side first.
    """
    rows = []
    for u, c in desc.equalities:
        rows += [(tuple(-x for x in u), -c, False), (u, c, False)]
    return (*rows, *((u, c, True) for u, c in desc.facets))


# ---------------------------------------------------------------------------
# edges of a polytope given by its vertices and (possibly redundant) constraints


def _tight_masks(verts: tuple[Vec, ...], cons: tuple[Constraint, ...]) -> list[int]:
    masks = []
    for v in verts:
        m = 0
        for k, (normal, c) in enumerate(cons):
            if dot(normal, v) == c:
                m |= 1 << k
        masks.append(m)
    return masks


def _piece_edges(verts: tuple[Vec, ...], masks: list[int], pairs=None, need: int = 0) -> list[tuple[int, int]]:
    # (i, j) spans an edge iff no third vertex is tight on every constraint
    # common to i and j; redundant constraints cannot break this test.  Tests
    # the given vertex pairs, all pairs by default.  An edge of a k-polytope
    # lies on at least k-1 facets, each of them at least one bit, so a caller
    # passing need = k-1 skips pairs with fewer common bits untested.
    edges = []
    nv = len(verts)
    for i, j in combinations(range(nv), 2) if pairs is None else pairs:
        t = masks[i] & masks[j]
        if t.bit_count() < need:
            continue
        if not any(k != i and k != j and (masks[k] & t) == t for k in range(nv)):
            edges.append((i, j))
    return edges
