"""Exact-arithmetic core: hulls, dual descriptions, linear algebra."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from latcayley import geometry
from latcayley import (
    DualDescription,
    GeometryError,
    convex_hull,
    contains,
    from_vertices,
)
from latcayley.geometry import (
    CELL_BUDGET_ENV,
    DEFAULT_CELL_BUDGET,
    CellBudgetExceeded,
    Mode,
    _beneath_beyond,
    _echelon,
    _simplex,
    affine_hull,
    cell_budget,
    dot,
    is_integer_vec,
    norm_scalar,
    vec_sub,
)

from conftest import Plane, hyperplane_through, primitive, rank


def test_norm_scalar_collapses_integral_fractions():
    assert norm_scalar(Fraction(4, 2)) == 2
    assert isinstance(norm_scalar(Fraction(4, 2)), int)
    assert norm_scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert norm_scalar(7) == 7


def test_primitive_divides_out_gcd_and_keeps_sign():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, -3)) == (0, -1)
    with pytest.raises(GeometryError):
        primitive((0, 0))


def test_hyperplane_canonical_sign():
    h = hyperplane_through((-2, 0), Fraction(-3, 1))
    assert h == Plane(normal=(1, 0), offset=Fraction(3, 2))
    # opposite orientations of the same plane canonicalize identically
    assert hyperplane_through((4, 0), 6) == h


def test_dual_description_canonicalizes_and_checks_equalities():
    hull = convex_hull([(1, 0), (2, 2)])
    assert hull.equalities == (((2, -1), 2),)
    d = DualDescription(2, 1, hull.vertices, hull.facets, [([2, -1], Fraction(2, 1))])
    assert d == hull
    ((u, c),) = d.equalities
    assert type(u) is tuple and type(c) is int
    # zero, empty, non-integral, non-primitive and negatively led normals
    for normal in [(0, 0), (), (Fraction(1, 2), 1), (2, -4), (-2, 1)]:
        with pytest.raises(GeometryError):
            DualDescription(2, 1, hull.vertices, hull.facets, [(normal, 1)])


def test_hull_unit_square():
    d = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    assert d.dim == 2
    assert d.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert d.equalities == ()
    assert len(d.facets) == 4


def test_hull_drops_interior_and_duplicate_points():
    d = convex_hull([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (2, 0)])
    assert d.vertices == ((0, 0), (0, 2), (2, 0))


def test_hull_segment_has_equality():
    # conv{(0,0),(1,2)} lives on 2x - y = 0
    d = convex_hull([(0, 0), (1, 2)])
    assert d.dim == 1
    assert d.equalities == (((2, -1), 0),)


def test_hull_single_point():
    d = convex_hull([(3, -1)])
    assert d.dim == 0
    assert d.vertices == ((3, -1),)


def _check_dual_description(d: DualDescription):
    for v in d.vertices:
        for normal, offset in d.facets:
            assert dot(normal, v) <= offset
        for normal, offset in d.equalities:
            assert dot(normal, v) == offset
    for normal, offset in d.facets:
        tight = [v for v in d.vertices if dot(normal, v) == offset]
        assert tight, "facet not supported by any vertex"
        diffs = [tuple(a - b for a, b in zip(v, tight[0])) for v in tight[1:]]
        assert rank(diffs) == d.dim - 1
    # extremality: dropping any vertex changes the hull
    if len(d.vertices) > 1:
        for i in range(len(d.vertices)):
            rest = d.vertices[:i] + d.vertices[i + 1:]
            assert convex_hull(rest).vertices != d.vertices


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)],
        [(0, 0), (4, 0), (0, 4), (4, 4), (2, 5)],
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2)],
        [(1, 1, 1)],
        [(-1, 2), (3, -2)],
    ],
)
def test_dual_description_invariants(points):
    _check_dual_description(convex_hull(points))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=1,
        max_size=7,
    )
)
def test_dual_description_invariants_random(pts):
    d = convex_hull(pts)
    _check_dual_description(d)
    # round-trip: hull of the vertex list reproduces the description
    assert convex_hull(d.vertices) == d


# ---------------------------------------------------------------------------
# reference linear algebra: Gauss-Jordan over Fractions


def rref(rows):
    """Reduced row echelon form over the rationals; returns (rows, pivot columns)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[: len(pivots)], pivots


def _reference_nullspace(rows, ncols):
    red, pivots = rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        w = primitive(tuple(v))
        if next(x for x in w if x) < 0:
            w = tuple(-x for x in w)
        basis.append(w)
    return basis


def _reference_affine_hull(points):
    pts = [tuple(p) for p in points]
    n = len(pts[0])
    base = pts[0]
    red, pivots = rref([vec_sub(p, base) for p in pts[1:]])
    normals = _reference_nullspace(red, n)
    red2, _ = rref([list(a) + [dot(a, base)] for a in normals])
    eqs = sorted((hyperplane_through(tuple(row[:n]), row[n]) for row in red2),
                 key=lambda h: (h.normal, Fraction(h.offset)))
    return len(pivots), tuple(eqs)


def _reference_rank(rows):
    return len(rref(rows)[1])


# ---------------------------------------------------------------------------
# reference hull: every dim-subset of the candidates, one Fraction nullspace each


def _brute_facets(cand, dim, eq_normals, n):
    facets = {}
    eq_rows = [tuple(map(Fraction, e)) for e in eq_normals]
    for subset in combinations(range(len(cand)), dim):
        s0 = cand[subset[0]]
        rows = [vec_sub(cand[i], s0) for i in subset[1:]]
        rows.extend(eq_rows)
        ns = _reference_nullspace(rows, n)
        if len(ns) != 1:
            continue
        u = ns[0]
        vals = [dot(u, p) for p in cand]
        c0 = dot(u, s0)
        mx, mn = max(vals), min(vals)
        if c0 == mx and mx > mn:
            facets[(u, norm_scalar(c0))] = None
        elif c0 == mn and mx > mn:
            facets[(tuple(-x for x in u), norm_scalar(-c0))] = None
    return list(facets)


def _reference_hull(points):
    cand = sorted(set(map(tuple, points)))
    n = len(cand[0])
    dim, eqs = _reference_affine_hull(cand)
    if dim == 0:
        return DualDescription(n, 0, (cand[0],), (), eqs)
    eq_normals = [h.normal for h in eqs]
    facets = _brute_facets(cand, dim, eq_normals, n)
    verts = [
        p for p in cand
        if _reference_rank([u for u, c in facets if dot(u, p) == c] + eq_normals) == n
    ]
    return DualDescription(n, dim, tuple(sorted(verts)), tuple(sorted(facets)), eqs)


@st.composite
def _hull_inputs(draw):
    """Point sets in dimensions 1-5: full-dimensional, on a hyperplane, Cayley-type
    at unit heights, with rational coordinates, and with duplicates; and dense
    planar sets, the sums of three polygons, up to 125 candidates mostly inside."""
    kind = draw(st.sampled_from(["full", "hyperplane", "cayley", "fraction", "planar-sum"]))
    coord = st.integers(-3, 3)
    if kind == "planar-sum":
        polygon = st.lists(st.tuples(coord, coord), min_size=5, max_size=5)
        return [tuple(map(sum, zip(*ps))) for ps in product(*(draw(polygon) for _ in range(3)))]
    n = draw(st.integers(4, 5) if kind == "cayley" else st.integers(1, 5))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=10 if n < 5 else 8))
    if kind == "hyperplane" and n >= 2:
        a = draw(st.tuples(*[st.integers(-2, 2)] * (n - 1)))
        b = draw(coord)
        pts = [p[:-1] + (dot(a, p[:-1]) + b,) for p in pts]
    elif kind == "cayley":
        m = draw(st.integers(2, 3))
        pts = [tuple(int(j == p[0] % m) for j in range(m)) + p[m:] for p in pts]
    elif kind == "fraction":
        dens = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
        pts = [tuple(Fraction(x, d) for x in p) for p, d in zip(pts, dens)]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return pts


@settings(max_examples=150, deadline=None)
@given(_hull_inputs(), st.randoms(use_true_random=False))
def test_convex_hull_matches_brute_force_reference(pts, rnd):
    d = convex_hull(pts)
    assert d == _reference_hull(pts)
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    assert convex_hull(shuffled) == d


@pytest.mark.parametrize("seed", [0, 1])
def test_convex_hull_of_3d_minkowski_sum_matches_reference(seed):
    rng = random.Random(seed)
    P = from_vertices([tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(7)])
    Q = from_vertices([tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(8)])
    sums = [tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices]
    assert convex_hull(sums) == _reference_hull(sums)


def _line(base, direction, ts):
    return [tuple(b + t * d for b, d in zip(base, direction)) for t in ts]


# in the order given, a segment's starting simplex is in its middle, so it grows at both ends
_HULL_CASES = {
    # (4, 0) sees x + y <= 2 and is collinear with the edge y >= 0 it does not see
    "2d-collinear-with-unseen-edge": [(0, 0), (0, 2), (2, 0), (4, 0)],
    "2d-collinear-with-both-axes": [(0, 0), (0, 2), (2, 0), (4, 0), (0, 5)],
    # (4, 0, 0) sees x + y + z <= 2 and is coplanar with y >= 0 and z >= 0
    "3d-coplanar-with-unseen-facets": [(0, 0, 0), (0, 0, 2), (0, 2, 0), (2, 0, 0), (4, 0, 0)],
    "3d-coplanar-square-and-apex": [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 0, 0), (3, 3, 0), (0, 3, 0), (1, 1, 4)
    ],
    **{
        f"1d-ambient-{n}": _line((1, -2, 0, 3)[:n], (2, -1, 3, 1)[:n], [0, 1, -3, 5, -1, 2])
        for n in range(1, 5)
    },
    "2d-in-ambient-3": [(0, 0, 1), (2, 0, 3), (0, 2, -1), (4, 0, 5), (1, 1, 1), (-2, 0, -1)],
    "2d-in-ambient-4": [(0, 0, 0, 0), (3, 3, 0, 6), (0, 1, 1, 1), (3, 4, 1, 7), (6, 6, 0, 12), (1, 2, 1, 3)],
    "3d-in-ambient-5": [
        (0, 0, 0, 1, 1), (1, 0, 0, 2, 1), (0, 1, 0, 1, 2), (0, 0, 1, 1, 1),
        (3, 0, 0, 4, 1), (0, 3, 0, 1, 4), (1, 1, 1, 2, 2), (2, 2, 0, 3, 3),
    ],
    "fraction-2d": [
        (Fraction(1, 2), 0), (0, Fraction(1, 3)), (1, 1), (Fraction(3, 2), 0), (Fraction(-1, 2), Fraction(1, 3))
    ],
    "fraction-line-in-3d": _line((Fraction(1, 2), 0, 1), (Fraction(1, 3), 1, -2), [0, 1, -3, 5, -1]),
    # the polygons below are read off a chart (x_i, x_j) of the plane; these two must skip (0, 1)
    "2d-in-plane-x0-2": [(2, 0, 0), (2, 3, 1), (2, 1, 4), (2, -2, 2), (2, 1, 1), (2, 0, 2), (2, 3, 1)],
    "2d-in-plane-x1-x0": [(0, 0, 0), (1, 1, 3), (-2, -2, 1), (3, 3, -1), (0, 0, 1), (1, 1, 0)],
    # collinear points on the top and bottom edges and on the vertical edges first and last in chart order
    "2d-collinear-on-edges": [
        (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (4, 0), (4, 1), (4, 2), (2, 1), (1, 2), (1, 3), (2, 3)
    ],
    "2d-collinear-in-plane-x1-x0": [
        (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 1, 0), (2, 2, 0), (3, 3, 0), (3, 3, 1), (3, 3, 2), (1, 1, 2)
    ],
    "fraction-2d-in-ambient-3": [
        (Fraction(1, 2), 0, 1), (0, Fraction(1, 3), 1), (1, 1, 1), (Fraction(3, 2), 0, 1),
        (Fraction(1, 2), Fraction(1, 3), 1), (Fraction(-1, 2), Fraction(2, 3), 1),
    ],
}


@pytest.mark.parametrize("pts", list(_HULL_CASES.values()), ids=list(_HULL_CASES))
def test_convex_hull_matches_brute_force_reference_explicit(pts):
    assert convex_hull(pts) == _reference_hull(pts)
    _assert_boundary_normals_are_kernel_vectors(sorted(set(pts), key=pts.index))


def _kernel_facet(pts, corners, eq_normals, inner, dim):
    """A boundary simplex's normal and offset as the one kernel vector of its
    edges and the equality normals, oriented away from the inner point."""
    p0 = pts[corners[0]]
    (u,) = _reference_nullspace([vec_sub(pts[i], p0) for i in corners[1:]] + eq_normals, len(p0))
    c = dot(u, p0)
    return (tuple(-x for x in u), -c) if dot(u, inner) > (dim + 1) * c else (u, c)


def _assert_boundary_normals_are_kernel_vectors(cand):
    """Insert the distinct points ``cand`` from the starting simplex their order
    gives; every boundary simplex then carries its kernel normal, every ridge
    lies on exactly two simplices, and no point is beyond any of them."""
    _, ipts, simplex, eqs = _simplex(cand)
    if len(simplex) == 1:
        return
    eq_normals = [u for u, _ in eqs]
    boundary = _beneath_beyond(ipts, simplex, eq_normals)
    dim = len(simplex) - 1
    inner = [sum(c) for c in zip(*(ipts[i] for i in simplex))]
    ridges = Counter(r for s in boundary for r in combinations(s, dim - 1))
    assert set(ridges.values()) == {2}
    for corners, (u, c) in boundary.items():
        assert (u, c) == _kernel_facet(ipts, corners, eq_normals, inner, dim)
        assert all(dot(u, p) <= c for p in ipts)


@settings(max_examples=150, deadline=None)
@given(_hull_inputs(), st.randoms(use_true_random=False))
def test_boundary_simplex_normals_are_kernel_vectors(pts, rnd):
    # a shuffled order starts from any simplex, so a segment grows at both ends
    cand = sorted(set(pts))
    rnd.shuffle(cand)
    _assert_boundary_normals_are_kernel_vectors(cand)


@pytest.mark.parametrize(
    "pts, eliminations",
    [
        ([(0, 0), (3, 1), (1, 4), (2, 2)], 1),
        ([(0, 0, 0), (2, 0, 1), (0, 3, 0), (1, 1, 4), (1, 1, 1)], 2),
        ([(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 3), (1, 1, 1, 1), (2, 0, 1, 0)], 2),
        ([(0, 0, 0), (2, 4, 6), (1, 2, 3)], 1),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 0)], 1),
        ([(1, 0, 0, 0), (1, 0, 2, 1), (0, 1, 0, 0), (0, 1, 1, 1), (0, 1, 0, 3)], 2),
        ([(1, 2, 3), (1, 2, 3)], 1),
    ],
)
def test_hull_start_needs_no_kernel_call(pts, eliminations, monkeypatch):
    # the dimension, the equalities and the starting simplex come from one
    # elimination; from dimension 3 the starting facets take one inverse more
    calls = []
    monkeypatch.setattr(geometry, "_echelon", lambda rows: calls.append(rows) or _echelon(rows))
    hull = convex_hull(pts)
    assert len(calls) == eliminations
    assert hull == _reference_hull(pts)


@pytest.mark.parametrize(
    "pts, calls",
    [
        ([(1, 2, 3), (1, 2, 3)], 0),
        (_line((0, 1, 2), (1, -1, 2), [0, 2, 1, -1]), 0),
        ([(0, 0), (3, 1), (1, 4), (2, 2), (0, 2)], 0),
        ([(0, 0, 0, 0), (3, 3, 0, 6), (0, 1, 1, 1), (3, 4, 1, 7), (1, 2, 1, 3)], 0),
        ([(0, 0, 0), (2, 0, 1), (0, 3, 0), (1, 1, 4), (1, 1, 1)], 1),
        ([(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 3), (1, 1, 1, 1), (2, 0, 1, 0)], 1),
    ],
)
def test_beneath_beyond_only_from_dimension_3(pts, calls, monkeypatch):
    # segments and polygons are read off sorted order
    seen = []
    monkeypatch.setattr(geometry, "_beneath_beyond", lambda *args: seen.append(args) or _beneath_beyond(*args))
    hull = convex_hull(pts)
    assert len(seen) == calls
    assert hull == _reference_hull(pts)


_entries = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[]],
        [[0, 0, 0]],
        [[0, 0], [0, 0]],
        [[1, Fraction(1, 2)], [2, 1], [0, 0]],
        [[Fraction(1, 3), 2, 0], [0, 0, 0], [1, 6, Fraction(0)], [0, 1, Fraction(-5, 2)]],
    ],
)
def test_rank_matches_rref_pivot_count_explicit(rows):
    assert rank(rows) == len(rref(rows)[1])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda c: st.lists(st.lists(_entries, min_size=c, max_size=c), max_size=6)))
def test_rank_matches_rref_pivot_count(rows):
    assert rank(rows) == len(rref(rows)[1])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda c: st.tuples(st.just(c), st.lists(st.lists(_entries, min_size=c, max_size=c), max_size=6))
    ),
    st.booleans(),
)
def test_nullspace_matches_rref_reference(shape, dependent):
    # the equalities of the hull of the origin and the rows are the rows' nullspace
    ncols, rows = shape
    if dependent and len(rows) >= 2:
        rows = rows + [[x - 2 * y for x, y in zip(rows[0], rows[1])]]
    pts = [(0,) * ncols] + [tuple(map(norm_scalar, row)) for row in rows]
    assert affine_hull(pts) == _reference_affine_hull(pts)


@st.composite
def _affine_inputs(draw):
    """Points in a random affine subspace of dimension 0-n of Q^n, n = 0-6, with
    rational coordinates, integral ones collapsed to ints, and duplicates."""
    n = draw(st.integers(0, 6))
    coord = st.fractions(-3, 3, max_denominator=3)
    base = draw(st.tuples(*[coord] * n))
    gens = draw(st.lists(st.tuples(*[coord] * n), max_size=n))
    coefs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(gens)), min_size=1, max_size=8))
    pts = [
        tuple(norm_scalar(b + sum(c * g[i] for c, g in zip(cs, gens))) for i, b in enumerate(base))
        for cs in coefs
    ]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@settings(max_examples=200, deadline=None)
@given(_affine_inputs())
def test_affine_hull_matches_rref_reference(pts):
    dim, eqs = affine_hull(pts)
    assert (dim, eqs) == _reference_affine_hull(pts)
    # canonical offsets: an integral one is an int, as the public DualDescription makes it
    assert all(type(c) is int or c.denominator > 1 for _, c in eqs)


def test_is_integer_vec_rejects_bool():
    assert is_integer_vec((0, Fraction(4, 2), -3))
    assert not is_integer_vec((True, 0))
    assert not is_integer_vec((0, Fraction(1, 2)))


def test_hulls_reject_bool_coordinates():
    for hull in (convex_hull, affine_hull):
        for pts in ([(True, 0), (0, 1)], [(True,), (False,)], [(0, 1), (Fraction(1, 2), False)]):
            with pytest.raises(GeometryError, match="bool"):
                hull(pts)


def test_contains_closed_and_relative_interior():
    d = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert contains(d, (0, 0))
    assert contains(d, (Fraction(1, 2), Fraction(1, 2)))
    assert not contains(d, (3, 0))
    assert not contains(d, (0, 0), Mode.RELATIVE_INTERIOR)
    assert contains(d, (Fraction(1, 2), Fraction(1, 2)), Mode.RELATIVE_INTERIOR)
    # a segment's relative interior ignores the ambient dimension
    s = convex_hull([(0, 0), (0, 2)])
    assert contains(s, (0, 1), Mode.RELATIVE_INTERIOR)
    assert not contains(s, (0, 0), Mode.RELATIVE_INTERIOR)


def test_cell_budget_env_override(monkeypatch):
    monkeypatch.delenv(CELL_BUDGET_ENV, raising=False)
    assert cell_budget() == DEFAULT_CELL_BUDGET
    monkeypatch.setenv(CELL_BUDGET_ENV, "123")
    assert cell_budget() == 123
    for raw in ("zero", "-5", "zero"):  # a refusal is parsed again, not cached
        monkeypatch.setenv(CELL_BUDGET_ENV, raw)
        with pytest.raises(GeometryError):
            cell_budget()
    monkeypatch.setenv(CELL_BUDGET_ENV, "123")
    assert cell_budget() == 123


def test_convex_hull_refuses_more_candidates_than_the_cell_budget(monkeypatch):
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (1, 1)]  # four distinct candidates
    monkeypatch.setenv(CELL_BUDGET_ENV, "4")
    assert convex_hull(pts).vertices == ((0, 0), (0, 2), (2, 0))
    monkeypatch.setenv(CELL_BUDGET_ENV, "3")
    with pytest.raises(CellBudgetExceeded, match=CELL_BUDGET_ENV):
        convex_hull(pts)


def test_no_floats_anywhere_in_descriptions():
    d = from_vertices([(0, 0), (3, 1), (1, 3)]).desc
    for v in d.vertices:
        assert all(isinstance(c, int) for c in v)
    for normal, offset in d.facets:
        assert all(isinstance(c, int) for c in normal)
        assert isinstance(offset, int)
    with pytest.raises(GeometryError):
        convex_hull([(0, 0), (0.5, 1)])
