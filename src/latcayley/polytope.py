"""Lattice polytopes and their combinatorial operations.

A lattice polytope is stored by its canonical dual description, so structural
equality decides set equality.  Dilates and translates are constructed by
rescaling the description directly.  A Minkowski sum of dilates g_i B_i of
primitive bases B_i reads its description off one cached hull of sum B_i, so
all sums over the same bases share one hull; Cayley sums go through the
convex hull.  Descriptions derived from a canonical one (dilates, sums) skip
the public constructors' re-checks.  Integer points are enumerated one
coordinate at a time, each coordinate bounded by the facets of the
polytope's projection onto the coordinates fixed so far; those bounds are
exact, so every point produced is in the polytope and none is re-tested.
The projection rows of gB are g times those of B, so they are cached once
per primitive base B.  A point set is held as its rows, the runs of the last
coordinate the enumeration yields; point tuples are built on demand.  Sets
the library builds (enumerations, sums, slices) skip the constructor checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, itemgetter, mul

from .geometry import (
    CELL_BUDGET_ENV,
    CellBudgetExceeded,
    DimensionMismatch,
    DualDescription,
    GeometryError,
    IntVec,
    Mode,
    _piece_edges,
    _tight_masks,
    cell_budget,
    constraint_rows,
    convex_hull,
    dot,
    is_integer_vec,
)


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of finitely many integer points, in canonical form."""

    desc: DualDescription

    def __post_init__(self) -> None:
        if not self.desc.is_lattice:
            raise GeometryError("lattice polytope vertices must be integral")

    @classmethod
    def _trusted(cls, ambient_dim: int, dim: int, vertices, facets, equalities) -> LatticePolytope:
        """A description the library derived from a canonical lattice one, in ints: vertices sorted,
        (normal, offset) facets sorted, and the (normal, offset) pairs of canonical equalities sorted;
        no re-check."""
        fields = dict(ambient_dim=ambient_dim, dim=dim, vertices=vertices, facets=facets, equalities=equalities)
        return _bare(cls, desc=_bare(DualDescription, **fields))

    @property
    def ambient_dim(self) -> int:
        return self.desc.ambient_dim

    @property
    def dim(self) -> int:
        return self.desc.dim

    @property
    def vertices(self) -> tuple[IntVec, ...]:
        return self.desc.vertices

    def __repr__(self) -> str:  # keep reprs short in test output
        return f"LatticePolytope(dim={self.dim}, vertices={self.vertices})"


@dataclass(frozen=True, init=False)
class PointSet:
    """Finite set of lattice points, held as its rows (prefix, lo, hi), the maximal runs
    prefix + (x,), lo <= x <= hi, in lexicographic order; so equal sets have equal rows.
    Sorted ``points`` are built on first use.  In Z^0 the point () is the row ((), 0, 0)."""

    ambient_dim: int
    rows: tuple[tuple[IntVec, int, int], ...]

    def __init__(self, ambient_dim: int, points) -> None:
        # insertion-ordered dedup: points that arrive sorted sort in linear time
        unique = dict.fromkeys(map(tuple, points))
        if any(len(p) != ambient_dim for p in unique):
            raise DimensionMismatch("point length disagrees with ambient_dim")
        if not all(type(x) is int for p in unique for x in p):
            if not all(is_integer_vec(p) for p in unique):
                raise GeometryError("lattice point coordinates must be integers")
            unique = dict.fromkeys(tuple(map(int, p)) for p in unique)
        pts = tuple(sorted(unique))
        rows: list[list] = []
        for head, x in ((p[:-1], p[-1] if p else 0) for p in pts):
            if rows and rows[-1][0] == head and rows[-1][2] == x - 1:
                rows[-1][2] = x
            else:
                rows.append([head, x, x])
        self.__dict__.update(ambient_dim=ambient_dim, rows=tuple(map(tuple, rows)), points=pts)

    @classmethod
    def _from_rows(cls, ambient_dim: int, rows: tuple) -> PointSet:
        """A set the library built as maximal runs in lexicographic order; no re-check."""
        return _bare(cls, ambient_dim=ambient_dim, rows=rows)

    @cached_property
    def points(self) -> tuple[IntVec, ...]:
        if not self.ambient_dim:
            return ((),) * len(self.rows)
        return tuple(p + (x,) for p, lo, hi in self.rows for x in range(lo, hi + 1))

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return sum(hi - lo + 1 for _, lo, hi in self.rows)

    def _row_at(self, head: IntVec, x: int) -> tuple[IntVec | None, int, int]:
        """The last row at or before (head, x) in row order, or (None, 0, -1)."""
        i = bisect_right(self.rows, (head, x, math.inf)) - 1
        return self.rows[i] if i >= 0 else (None, 0, -1)

    def __contains__(self, p) -> bool:
        p = tuple(p)
        head, x = p[:-1], p[-1] if p else 0  # as rows hold the point () of Z^0
        q, lo, hi = self._row_at(head, x)
        return len(p) == self.ambient_dim and q == head and x in range(lo, hi + 1)

    def not_in(self, other: PointSet):
        """The points of this set that are not in other, in lexicographic
        order, from one walk over both row lists."""
        if not self.ambient_dim:  # the point () is in both sets or in one
            yield from () if other.rows else self.points
            return
        rows, j = other.rows, 0
        for p, lo, hi in self.rows:
            x, end = lo, (p, hi, math.inf)
            while j < len(rows) and rows[j] <= end:  # other's rows that start at or before (p, hi)
                q, t_lo, t_hi = rows[j]
                if q == p and t_hi >= x:
                    yield from (p + (y,) for y in range(x, t_lo))
                    x = t_hi + 1
                    if x > hi + 1:  # the row reaches into this set's next row
                        break
                j += 1
            if x <= hi:
                yield from (p + (y,) for y in range(x, hi + 1))


@dataclass(frozen=True)
class Edge:
    """A 1-face; lattice_length is the number of lattice segments it spans."""

    endpoints: tuple[IntVec, IntVec]
    lattice_length: int


def _bare(cls, **fields):
    """An instance of the frozen dataclass cls with these fields, without its __post_init__ checks."""
    self = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(self, name, value)
    return self


def _int_vec(v, what: str) -> IntVec:
    """v as a tuple of ints; rejects bool and non-integral entries instead of truncating."""
    v = tuple(v)
    if all(type(x) is int for x in v):  # as in norm_scalar: a bool falls through
        return v
    if not is_integer_vec(v):
        raise GeometryError(f"non-integer {what} {v!r}")
    return tuple(int(x) for x in v)


def from_vertices(points) -> LatticePolytope:
    """Canonical lattice polytope from any finite set of integer points."""
    pts = [_int_vec(p, "vertex") for p in points]
    if not pts:
        raise GeometryError("empty point set")
    return LatticePolytope(convex_hull(pts))


def translate(P: LatticePolytope, v) -> LatticePolytope:
    """Shift by an integer vector.

    A shift keeps the vertices' lexicographic order and every normal, so the
    shifted description is canonical as it stands.
    """
    v = _int_vec(v, "translation")
    if len(v) != P.ambient_dim:
        raise GeometryError("translation vector has wrong length")
    d = P.desc
    return LatticePolytope._trusted(
        d.ambient_dim,
        d.dim,
        tuple(tuple(map(add, p, v)) for p in d.vertices),
        tuple((u, c + dot(u, v)) for u, c in d.facets),
        tuple((u, c + dot(u, v)) for u, c in d.equalities),
    )


@lru_cache(maxsize=8)
def _units(n: int) -> frozenset[IntVec]:
    return frozenset(tuple(int(j == k) for j in range(n)) for k in range(n))


def _origin(n: int) -> LatticePolytope:
    """The origin of Z^n, cut out by the equalities x_k = 0 sorted by normal."""
    return LatticePolytope._trusted(n, 0, ((0,) * n,), (), tuple((u, 0) for u in sorted(_units(n))))


def dilate(P: LatticePolytope, factor: int) -> LatticePolytope:
    """The dilate factor*P; factor 0 collapses to the origin point."""
    if isinstance(factor, bool) or not isinstance(factor, int) or factor < 0:
        raise GeometryError(f"dilation factor must be a nonnegative integer, got {factor!r}")
    d = P.desc
    if factor == 0:
        return _origin(d.ambient_dim)
    if factor == 1:
        return P
    return LatticePolytope._trusted(
        d.ambient_dim,
        d.dim,
        tuple(tuple(x * factor for x in v) for v in d.vertices),
        tuple((u, c * factor) for u, c in d.facets),
        tuple((u, c * factor) for u, c in d.equalities),
    )


@lru_cache(maxsize=512)
def _sum_template(bases: tuple) -> tuple:
    """The hull of B_1 + ... + B_m for primitive bases B_i, each given by its
    sorted vertices, as (dim, corners, facets, equalities): for each hull
    vertex, the index of the vertex of each B_i that it sums (a vertex of a
    Minkowski sum decomposes uniquely); for each facet normal u, the support
    values (h_{B_i}(u)), read off one vertex on the facet, where every summand
    attains its maximum; and for each equality normal, the offsets of the B_i."""
    # each sum of one vertex per base, with one decomposition; a vertex's partial
    # sums are vertices of the partial sums, so each has just one to keep
    decompose: dict[IntVec, tuple[int, ...]] = {(0,) * len(bases[0][0]): ()}
    for B in bases:
        decompose = {tuple(map(add, s, b)): J + (j,) for s, J in decompose.items() for j, b in enumerate(B)}
    hull = convex_hull(decompose)
    corners = tuple(decompose[v] for v in hull.vertices)
    facets = []
    for u, c in hull.facets:
        J = next(J for v, J in zip(hull.vertices, corners) if dot(u, v) == c)
        facets.append((u, tuple(dot(u, B[j]) for B, j in zip(bases, J))))
    eqs = tuple((u, tuple(dot(u, B[0]) for B in bases)) for u, _ in hull.equalities)
    return hull.dim, corners, tuple(facets), eqs


def minkowski_sum(polytopes) -> LatticePolytope:
    """Minkowski sum of a nonempty list.

    Factor P_i is g_i B_i, with g_i the gcd of its vertex coordinates and B_i
    primitive; factors at the origin (g_i = 0) add nothing.  The normal fan of
    a sum is the common refinement of its summands' fans and a positive scale
    factor keeps a fan (Ziegler, Lectures on Polytopes, Prop. 7.12), so
    sum g_i B_i has the facet normals, equalities and vertex decompositions of
    sum B_i, from ``_sum_template``: its vertices are the sums of the matching
    vertices of the P_i, re-sorted, and its offsets are sum g_i h_{B_i}.
    Facets and equalities stay sorted, since their normals are distinct.
    """
    Ps = list(polytopes)
    if not Ps:
        raise GeometryError("minkowski_sum needs at least one polytope")
    n = Ps[0].ambient_dim
    if any(P.ambient_dim != n for P in Ps):
        raise DimensionMismatch("minkowski_sum factors must share an ambient dimension")
    factors = [(g, P) for P in Ps if (g := math.gcd(*(x for v in P.desc.vertices for x in v)))]
    if not factors:
        return _origin(n)
    if len(factors) == 1:
        return factors[0][1]
    gs = [g for g, _ in factors]
    verts = [P.desc.vertices for _, P in factors]
    bases = tuple(tuple(tuple(x // g for x in v) for v in V) for g, V in zip(gs, verts))
    dim, corners, facets, eqs = _sum_template(bases)
    return LatticePolytope._trusted(
        n,
        dim,
        tuple(sorted(tuple(map(sum, zip(*(V[j] for V, j in zip(verts, J))))) for J in corners)),
        tuple((u, dot(gs, hs)) for u, hs in facets),
        tuple((u, dot(gs, hs)) for u, hs in eqs),
    )


def cayley_sum(polytopes) -> LatticePolytope:
    """Join the factors at unit heights in m extra leading coordinates.

    Factor i is embedded at height e_i, so the result lives in dimension
    m + N and its lattice points at height e_i are {e_i} x (P_i cap Z^N).
    """
    Ps = list(polytopes)
    if not Ps:
        raise GeometryError("cayley_sum needs at least one polytope")
    n = Ps[0].ambient_dim
    if any(P.ambient_dim != n for P in Ps):
        raise DimensionMismatch("cayley_sum factors must share an ambient dimension")
    m = len(Ps)
    pts = []
    for i, P in enumerate(Ps):
        height = tuple(1 if j == i else 0 for j in range(m))
        for v in P.vertices:
            pts.append(height + v)
    return from_vertices(pts)


# ---------------------------------------------------------------------------
# integer point enumeration


def _bound_rows(rows, k: int) -> tuple:
    """The rows u.x <= c of ``constraint_rows`` with u_k != 0, as bounds on x_k:
    (upper, L) and (lower, M) by the sign of u_k, each row (h, a, c, is_facet)
    for head h = u_0..u_{k-2} and a = u_{k-1}, scaled by L / |u_k| to L, the
    lcm of the side's |u_k|, and sorted by a, largest first, for ``_envelope``."""
    sides: tuple[list, list] = ([], [])
    for u, c, is_facet in rows:
        if u[k]:
            sides[u[k] < 0].append((abs(u[k]), u[: k - 1], u[k - 1], c, is_facet))
    levels = []
    for side in sides:
        L = math.lcm(*[row[0] for row in side])
        scaled = [
            (h, a, c, f) if m == L else (tuple([x * (L // m) for x in h]), a * (L // m), c * (L // m), f * (L // m))
            for m, h, a, c, f in side
        ]
        scaled.sort(key=itemgetter(1), reverse=True)
        levels.append((scaled, L))
    return tuple(levels)


@lru_cache(maxsize=512)
def _projection_rows(base: frozenset) -> tuple:
    """Levels 1..n-2 of ``_integer_points`` for a primitive base B, given B's
    vertices projected onto coordinates 0..n-2: the ``_bound_rows`` of each
    pi_k(B).  Offsets are unshifted: one entry serves every gB and both modes."""
    levels = []
    proj_vertices = base
    for k in range(len(next(iter(base))) - 1, 0, -1):
        proj = convex_hull({v[: k + 1] for v in proj_vertices})
        proj_vertices = proj.vertices
        levels.append(_bound_rows(constraint_rows(proj), k))
    return tuple(levels[::-1])


def _envelope(rows: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The lower envelope over x = lo..hi of the lines (b - a x) / L of rows
    (b, a) sorted by a, largest first: segments (end, b, a) in order, each
    starting after the last (the first at lo), on which row (b, a) is least.
    A segment takes the first least row at its start, the one of largest a,
    and keeps it until a row of larger a passes below it, from
    x = (b_i - b) // (a_i - a) + 1 on; a row after it never does."""
    segments = []
    while True:
        values = [b - a * lo for b, a in rows]
        i = values.index(min(values))
        b, a = rows[i]
        rows = rows[:i]
        end = min([(bi - b) // (ai - a) for bi, ai in rows if ai != a], default=hi)
        if end >= hi:
            segments.append((hi, b, a))
            return segments
        segments.append((end, b, a))
        lo = end + 1


def _integer_points(desc: DualDescription, mode: Mode) -> list[tuple[IntVec, int, int]]:
    """The integer points of P (closed mode) or of relint P, as ``PointSet`` rows.

    Coordinates are fixed in order.  Level k holds the ``constraint_rows``
    u.x <= c of the projection pi_k(P) onto coordinates 0..k (the hull of the
    projected vertices; level n-1 is P itself) whose k-th coefficient is
    nonzero, filed by its sign as an upper or a lower bound on x_k.  Every
    offset c is an integer (an integer normal dotted with an integer vertex),
    so in relative-interior mode a facet row becomes u.x <= c - 1, which over
    the integers is exactly u.x < c; the other rows are kept as they are.
    Level 0 needs no hull: pi_0(P) is the interval between the least and
    greatest first coordinate of a vertex, which shrinks by one at each end
    in relative-interior mode unless it is a single point.

    A level k+1 row is split into its head over x_0..x_{k-1}, its
    coefficient a of x_k and m = |u_{k+1}|, and each side is brought to one
    denominator L, the lcm of its m.  A node at level k reduces each row over
    its prefix once, b = r - head.prefix, so child x_k has the upper bound
    min floor((b - a x_k) / L) over the upper rows, and minus that over the
    lower rows is its lower bound.  Floor is monotone, so that is the floor
    of the least line, read off the lower envelope of the lines (``_envelope``):
    one floor division per child and side, and a row scan per segment, not
    per child.  The children of a level n-2 node are the fibres, appended
    as they are found.

    Levels 1..n-2 come from ``_projection_rows``.  With g the gcd of all
    vertex coordinates (1 for the origin), P = gB and pi_k(P) = g pi_k(B) has
    the rows of pi_k(B) with g times their offsets; so they are cached per B,
    and a facet row's offset g*c is shifted in relative-interior mode.

    By induction every prefix accepted at level k lies in pi_k(P), or in
    relint pi_k(P) = pi_k(relint P) (Rockafellar, Convex Analysis, Thm 6.6).
    A facet of pi_k(P) whose k-th coefficient is zero is an inequality on
    coordinates 0..k-1, valid on pi_{k-1}(P) and not constant there, so the
    level below already enforces it, strictly in relative-interior mode.  So
    the rows give the exact fibre over each accepted prefix, the last
    coordinate is emitted as a whole interval, and no point is re-tested: the
    fibres are the maximal runs, in order, as ``PointSet._from_rows`` needs.  Raises
    CellBudgetExceeded when the output would pass LATCAYLEY_CELL_BUDGET.
    """
    n = desc.ambient_dim
    if n == 0:
        return [((), 0, 0)]
    strict = int(mode is Mode.RELATIVE_INTERIOR)
    scaled = [(1, _bound_rows(constraint_rows(desc), n - 1))] if n > 1 else []  # (g, level) for levels 1..n-1
    if n > 2:
        g = math.gcd(*(x for v in desc.vertices for x in v)) or 1
        base = frozenset(tuple(x // g for x in v[:-1]) for v in desc.vertices)
        scaled[:0] = [(g, level) for level in _projection_rows(base)]
    # levels[k] = ((upper, L), (lower, M)), rows (head, a, r) with r the offset, shifted in relint mode
    levels = [None] + [
        [([(h, a, g * c - strict * f) for h, a, c, f in rows], L) for rows, L in level] for g, level in scaled
    ]
    budget = cell_budget()
    out: list[tuple[IntVec, int, int]] = []
    count = 0

    def spend(points: int) -> None:
        nonlocal count
        count += points
        if count > budget:
            raise CellBudgetExceeded(
                f"lattice point enumeration would return more than {budget} points; "
                f"raise {CELL_BUDGET_ENV} to allow more"
            )

    def rec(k: int, prefix: IntVec, lo: int, hi: int) -> None:
        # x_k runs over [lo, hi]; the envelopes bound x_{k+1} over each x_k
        (upper, L), (lower, M) = levels[k + 1]
        ups = _envelope([(r - sum(map(mul, h, prefix)), a) for h, a, r in upper], lo, hi)
        downs = _envelope([(r - sum(map(mul, h, prefix)), a) for h, a, r in lower], lo, hi)
        fibres = k + 2 == n
        points = i = j = 0
        while lo <= hi:
            (eu, bu, au), (el, bl, al) = ups[i], downs[j]
            end = min(eu, el)
            for x in range(lo, end + 1):
                top, bottom = (bu - au * x) // L, -((bl - al * x) // M)
                if bottom <= top:
                    if fibres:
                        out.append((prefix + (x,), bottom, top))
                        points += top - bottom + 1
                    else:
                        rec(k + 1, prefix + (x,), bottom, top)
            i, j, lo = i + (eu == end), j + (el == end), end + 1
        if fibres:
            spend(points)

    lo, hi = min(v[0] for v in desc.vertices), max(v[0] for v in desc.vertices)
    if lo < hi:
        lo, hi = lo + strict, hi - strict
    if lo <= hi and n == 1:
        spend(hi - lo + 1)
        out.append(((), lo, hi))
    elif lo <= hi:
        rec(0, (), lo, hi)
    return out


_cached_points = 0  # points the enumeration caches took in since last emptied: never fewer than held


def _admit(points: PointSet) -> PointSet:
    """Count a cache miss's points, first emptying every cache of _ENUMERATION_CACHES (held by object: a
    tracer may rebind their module names) if the count would pass the cell budget (LATCAYLEY_CELL_BUDGET)."""
    global _cached_points
    count = len(points)
    if _cached_points + count > cell_budget():
        for cache in _ENUMERATION_CACHES:
            cache.cache_clear()
        _cached_points = 0
    _cached_points += count
    return points


@lru_cache(maxsize=512)
def lattice_points(P: LatticePolytope) -> PointSet:
    """All integer points of P (exactly those accepted by closed containment)."""
    return _admit(PointSet._from_rows(P.ambient_dim, tuple(_integer_points(P.desc, Mode.CLOSED))))


@lru_cache(maxsize=512)
def interior_lattice_points(P: LatticePolytope) -> PointSet:
    """Integer points of relint(P) (exactly those accepted by relative-interior containment)."""
    return _admit(PointSet._from_rows(P.ambient_dim, tuple(_integer_points(P.desc, Mode.RELATIVE_INTERIOR))))


_slice_dilate = lru_cache(maxsize=512)(dilate)  # one object per (C, total): slice lookups hit by identity
_ENUMERATION_CACHES = (lattice_points, interior_lattice_points, _projection_rows, _sum_template, _slice_dilate)


# ---------------------------------------------------------------------------
# edges, Cayley slices, normal fans


def edges(P: LatticePolytope) -> list[Edge]:
    """The 1-faces with their lattice lengths; a 0-dimensional polytope has none."""
    if P.dim == 0:
        return []
    verts = P.vertices
    out = [
        Edge((verts[i], verts[j]), math.gcd(*(a - b for a, b in zip(verts[i], verts[j]))))
        for i, j in _piece_edges(verts, _tight_masks(verts, P.desc.facets), need=P.dim - 1)
    ]
    return sorted(out, key=lambda e: e.endpoints)


def cayley_slice(C: LatticePolytope, heights, mode: Mode = Mode.CLOSED) -> PointSet:
    """Lattice points of (sum a_i)C, or of its relative interior by mode, C a Cayley
    polytope, whose leading block equals a; read off C, not its factors, to serve as
    the left side of slice checks."""
    a = _int_vec(heights, "heights")
    m = len(a)
    if {v[:m] for v in C.vertices} != _units(m):
        raise GeometryError("need one height per Cayley factor")
    if any(x < 0 for x in a):
        raise GeometryError("heights must be nonnegative")
    pts = (lattice_points if mode is Mode.CLOSED else interior_lattice_points)(_slice_dilate(C, sum(a)))
    if m == C.ambient_dim:  # factors in Z^0: the slice is the point a or nothing
        return PointSet(m, (a,) if a in pts else ())
    # the rows whose prefix starts with a are one run of the sorted rows
    rows = pts.rows[bisect_left(pts.rows, (a,)) : bisect_left(pts.rows, ((*a[:-1], a[-1] + 1),))]
    return PointSet._from_rows(C.ambient_dim, rows)


def normal_fan_coarsens(P: LatticePolytope, Q: LatticePolytope) -> bool:
    """True iff every vertex normal cone of P sits inside one vertex cone of Q.

    Both polytopes must be full-dimensional.  Exact test: for each vertex v of
    P, the sum of its tight facet normals is an interior ray of its cone; the
    unique Q-vertex maximizing that ray must then maximize every tight normal
    of v.  Ties mean the ray lies on a wall of Q's fan, so the cone straddles.
    """
    n = P.ambient_dim
    if Q.ambient_dim != n:
        raise DimensionMismatch("polytopes must share an ambient dimension")
    if P.dim != n or Q.dim != n:
        raise GeometryError("normal_fan_coarsens requires full-dimensional polytopes")
    qverts = Q.vertices
    for v in P.vertices:
        gens = [normal for normal, c in P.desc.facets if dot(normal, v) == c]
        ray = tuple(sum(g[i] for g in gens) for i in range(n))
        vals = [dot(ray, q) for q in qverts]
        mx = max(vals)
        if vals.count(mx) != 1:
            return False
        u = qverts[vals.index(mx)]
        for g in gens:
            gu = dot(g, u)
            if any(dot(g, q) > gu for q in qverts):
                return False
    return True
