"""Polytope constructions: sums, dilates, slices, edges, fans."""

import math
import random
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from latcayley import (
    CellBudgetExceeded,
    DimensionMismatch,
    GeometryError,
    LatticePolytope,
    PointSet,
    cayley_slice,
    cayley_sum,
    dilate,
    edges,
    from_vertices,
    interior_lattice_points,
    is_tuple_idp,
    lattice_points,
    minkowski_sum,
    normal_fan_coarsens,
    point_set_sum,
    random_lattice_polytope,
    translate,
)
from latcayley.geometry import CELL_BUDGET_ENV, DualDescription, Mode, constraint_rows, contains, convex_hull, dot
from latcayley.polytope import _bound_rows, _envelope, _projection_rows, _sum_template

from conftest import Plane, seg


def P(*verts):
    return from_vertices(verts)


# ---------------------------------------------------------------------------
# construction and enumeration


def test_from_vertices_canonicalizes():
    a = P((0, 0), (1, 0), (0, 1), (1, 1))
    b = P((1, 1), (0, 0), (0, 1), (1, 0), (0, 0))
    assert a == b
    assert a.vertices == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_point_set_rejects_non_integer_coordinates():
    with pytest.raises(GeometryError):
        PointSet(1, ((Fraction(1, 2),), (1.5,)))
    with pytest.raises(GeometryError):
        PointSet(2, ((0, True),))
    S = PointSet(2, ((Fraction(4, 2), 1), (0, 0), (2, 1)))
    assert S.points == ((0, 0), (2, 1))
    assert all(type(x) is int for p in S for x in p)


def test_point_set_rejects_points_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        PointSet(2, ((0, 0), (1,)))
    with pytest.raises(DimensionMismatch):
        PointSet(1, ((0, 0),))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=12),
    st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=12),
)
def test_point_set_membership_agrees_with_set(points, queries):
    S = PointSet(2, points)
    have = set(S.points)
    for q in list(S.points) + [list(p) for p in S.points] + queries:
        assert (q in S) == (tuple(q) in have)


def test_from_vertices_rejects_non_integer():
    with pytest.raises(GeometryError):
        from_vertices([(0, 0), (1, 0.5)])
    with pytest.raises(GeometryError):
        from_vertices([(True, 0), (0, 1)])


_SQUARE, _SEGMENT = P((0, 0), (1, 0), (0, 1), (1, 1)), P((0,), (1,))


@pytest.mark.parametrize("kind, call", [
    (GeometryError, lambda: from_vertices([])),
    (GeometryError, lambda: convex_hull([])),
    (GeometryError, lambda: translate(_SQUARE, (1,))),
    (GeometryError, lambda: minkowski_sum([])),
    (GeometryError, lambda: cayley_sum([])),
    (GeometryError, lambda: is_tuple_idp([])),
    (GeometryError, lambda: DualDescription(1, 0, (), (), ())),
    (GeometryError, lambda: DualDescription(2, 1, ((0, 0),), (), ())),
    (GeometryError, lambda: DualDescription(2, 2, ((0, 0),), (), ())),
    (GeometryError, lambda: LatticePolytope(convex_hull([(Fraction(1, 2),)]))),
    (GeometryError, lambda: random_lattice_polytope(0, 0, 0)),
    (DimensionMismatch, lambda: convex_hull([(0,), (0, 1)])),
    (DimensionMismatch, lambda: cayley_sum([_SEGMENT, _SQUARE])),
    (DimensionMismatch, lambda: normal_fan_coarsens(_SEGMENT, _SQUARE)),
    (DimensionMismatch, lambda: contains(_SQUARE.desc, (0,))),
    (DimensionMismatch, lambda: DualDescription(2, 0, ((0,),), (), (((0, 1), 0), ((1, 0), 0)))),
])
def test_library_refusals(kind, call):
    with pytest.raises(GeometryError) as caught:
        call()
    assert type(caught.value) is kind


@pytest.mark.parametrize("bad", [(0.5, 0), (True, 0), (Fraction(1, 2), 0), (1.0, 0)])
def test_translate_and_cayley_slice_reject_non_integral_entries(bad):
    sq = P((0, 0), (1, 0), (0, 1), (1, 1))
    C = cayley_sum([sq, sq])
    with pytest.raises(GeometryError):
        translate(sq, bad)
    with pytest.raises(GeometryError):
        cayley_slice(C, bad)


def test_translate_and_cayley_slice_normalise_integral_fractions():
    sq = P((0, 0), (1, 0), (0, 1), (1, 1))
    C = cayley_sum([sq, sq])
    assert translate(sq, (Fraction(4, 2), 0)) == translate(sq, (2, 0))
    assert cayley_slice(C, (Fraction(2, 1), 0)) == cayley_slice(C, (2, 0))


def test_lattice_points_unit_square(unit_square):
    assert lattice_points(unit_square).points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_lattice_points_reeve_only_vertices(reeve):
    assert lattice_points(reeve).points == ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 2))


def test_interior_lattice_points():
    assert interior_lattice_points(P((0, 0), (1, 0), (0, 1), (1, 1))).points == ()
    assert interior_lattice_points(P((0, 0), (2, 0), (0, 2), (2, 2))).points == ((1, 1),)
    # relative interior for lower-dimensional polytopes
    assert interior_lattice_points(seg((0,), (3,))).points == ((1,), (2,))
    assert interior_lattice_points(P((5, 7))).points == ((5, 7),)


def _box_size(Q):
    return math.prod(max(c) - min(c) + 1 for c in zip(*Q.vertices))


def _assert_enumeration_matches_box_scan(Q):
    box = product(*(range(min(c), max(c) + 1) for c in zip(*Q.vertices)))
    closed, inner = [], []
    for p in box:
        if contains(Q.desc, p, Mode.CLOSED):
            closed.append(p)
            if contains(Q.desc, p, Mode.RELATIVE_INTERIOR):
                inner.append(p)
    assert lattice_points(Q).points == tuple(closed)
    assert interior_lattice_points(Q).points == tuple(inner)


@st.composite
def _enumeration_inputs(draw):
    """Integer polytopes in dimensions 1-5 (full-dimensional, on a hyperplane, or
    Cayley-type at unit heights), at the largest dilate in 1..t, t <= 3, whose
    vertex box holds at most 20000 points."""
    kind = draw(st.sampled_from(["full", "hyperplane", "cayley"]))
    n = draw(st.integers(3, 5) if kind == "cayley" else st.integers(1, 5))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=8))
    if kind == "hyperplane" and n >= 2:
        a = draw(st.tuples(*[st.integers(-2, 2)] * (n - 1)))
        b = draw(coord)
        pts = [p[:-1] + (dot(a, p[:-1]) + b,) for p in pts]
    elif kind == "cayley":
        m = draw(st.integers(2, n - 1))
        pts = [tuple(int(j == p[0] % m) for j in range(m)) + p[m:] for p in pts]
    Q = from_vertices(pts)
    t = draw(st.integers(1, 3))
    while t > 1 and _box_size(dilate(Q, t)) > 20000:
        t -= 1
    return dilate(Q, t)


@settings(max_examples=120, deadline=None)
@given(_enumeration_inputs())
def test_lattice_points_match_box_scan(Q):
    _assert_enumeration_matches_box_scan(Q)


def _random_3d_minkowski_sum(seed):
    rng = random.Random(seed)
    A = from_vertices([tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(7)])
    B = from_vertices([tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(8)])
    return minkowski_sum([A, B])


@pytest.mark.parametrize(
    "make",
    [
        lambda: dilate(_random_3d_minkowski_sum(0), 2),
        lambda: dilate(_random_3d_minkowski_sum(1), 2),
        lambda: seg((0, 0, 0), (0, 0, 4)),
        lambda: from_vertices([()]),
    ],
    ids=["mink3d-seed0-x2", "mink3d-seed1-x2", "segment-on-axis", "ambient-point"],
)
def test_lattice_points_match_box_scan_explicit(make):
    _assert_enumeration_matches_box_scan(make())


@st.composite
def _dilate_runs(draw):
    """A base in ambient dimension 3-5 (full-dimensional, of lower dimension,
    Cayley-type at unit heights, or the origin), possibly doubled so that its
    vertex gcd is above 1, with the primitive base it was doubled from, and a
    shuffled order of its dilates 0..4 in both modes.  The largest dilate's
    vertex box holds at most 6561 points."""
    kind = draw(st.sampled_from(["full", "lower", "cayley", "origin"]))
    n = draw(st.integers(3, 5))
    scale = draw(st.sampled_from([1, 2])) if n < 5 else 1
    width = 2 if (8 * scale + 1) ** n <= 6561 else 1
    coord = st.integers(0, width)
    if kind == "origin":
        pts = [(0,) * n]
    elif kind == "cayley":
        m = draw(st.integers(2, n - 1))
        tails = draw(st.lists(st.tuples(*[coord] * (n - m)), min_size=m, max_size=m + 3))
        pts = [tuple(int(j == i % m) for j in range(m)) + t for i, t in enumerate(tails)]
    else:
        size = st.integers(n + 1, n + 4) if kind == "full" else st.integers(1, n)
        pts = draw(st.lists(st.tuples(*[coord] * n), min_size=draw(size), max_size=n + 4))
    primitive = from_vertices(pts)
    order = draw(st.permutations([(t, f) for t in range(5) for f in (lattice_points, interior_lattice_points)]))
    return dilate(primitive, scale), primitive, order


@settings(max_examples=60, deadline=None)
@given(_dilate_runs())
def test_warm_row_cache_enumerates_every_dilate_exactly(run):
    base, primitive, order = run
    lattice_points.cache_clear()  # the point caches only: the row cache stays warm
    interior_lattice_points.cache_clear()
    for t, enumerate_points in order:
        enumerate_points(dilate(base, t))
    for t in range(5):
        _assert_enumeration_matches_box_scan(dilate(base, t))
    # the doubled base filled the row entry its primitive base now reads
    _assert_enumeration_matches_box_scan(primitive)


@settings(max_examples=40, deadline=None)
@given(
    _enumeration_inputs(),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_library_built_point_sets_are_what_the_public_constructor_builds(Q, pa, pb, heights):
    closed, inner = lattice_points(Q), interior_lattice_points(Q)
    C = cayley_sum([from_vertices(pa), from_vertices(pb)])
    for S in (closed, inner, point_set_sum(closed, inner), point_set_sum(inner, closed), cayley_slice(C, heights)):
        assert S.points == PointSet(S.ambient_dim, S.points).points
        assert S == PointSet(S.ambient_dim, S.points)  # the rows the library built are the canonical ones
        assert all(type(x) is int for p in S for x in p)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3), st.sampled_from([1, -1]), st.integers(-9, 9)), min_size=1),
    st.integers(-4, 4),
    st.integers(0, 8),
)
# parallel rows (a/m = 1 twice), a duplicate row, and a tie at lo between two slopes
@example([(2, 2, 1, 3), (1, 1, 1, 0), (1, 1, 1, 0), (0, 3, 1, 4), (-1, 2, 1, 1), (1, 1, -1, -5)], -3, 7)
@example([(1, 1, 1, 0), (-1, 1, 1, 0), (0, 2, -1, 1), (3, 2, -1, 1)], 0, 4)
@example([(-2, 3, 1, 5), (2, 3, -1, 1)], 2, 0)
def test_envelope_walk_matches_the_least_row_at_every_x(lines, lo, width):
    # a line (a, m, sign, c) is the level-1 row (a, sign*m).x <= c: over x_0 = x
    # it bounds x_1 above by (c - a x) // m (sign 1) or below by -((c - a x) // m)
    hi = lo + width
    rows = [((a, sign * m), c, True) for a, m, sign, c in lines]
    for (side, L), sign in zip(_bound_rows(rows, 1), (1, -1)):
        mine = [(a, m, c) for a, m, s, c in lines if s == sign]
        assert len(side) == len(mine) and all(L % m == 0 for _, m, _ in mine)
        if not side:
            continue
        scaled = [(c, a) for _, a, c, _ in side]
        x = lo
        for end, b, a in _envelope(scaled, lo, hi):
            # the segment's row is the least at its start, ties going to the largest a
            assert (b - a * x, -a) == min((bi - ai * x, -ai) for bi, ai in scaled)
            for y in range(x, end + 1):
                assert (b - a * y) // L == min((c - ai * y) // m for ai, m, c in mine)
            x = end + 1
        assert x == hi + 1


def test_lattice_points_of_a_reeve_dilate_with_denominator_rows():
    # with its height along x_0, the Reeve tetrahedron's rows on x_2 have |u_2| = 2
    R = dilate(P((0, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)), 3)
    (upper, L), (lower, M) = _bound_rows(constraint_rows(R.desc), 2)
    assert (L, M) == (2, 2)
    assert lattice_points(R).rows == (
        ((0, 0), 0, 3), ((0, 1), 0, 2), ((0, 2), 0, 1), ((0, 3), 0, 0), ((1, 1), 1, 2), ((1, 2), 1, 1),
        ((2, 1), 1, 3), ((2, 2), 1, 2), ((2, 3), 1, 1), ((3, 2), 2, 2), ((4, 2), 2, 3), ((4, 3), 2, 2),
        ((6, 3), 3, 3),
    )
    assert interior_lattice_points(R).rows == (((1, 1), 1, 2), ((1, 2), 1, 1), ((3, 2), 2, 2))
    _assert_enumeration_matches_box_scan(R)


def test_lattice_points_respect_cell_budget(monkeypatch, unit_square, cold_enumeration_cache):
    monkeypatch.setenv(CELL_BUDGET_ENV, "10")
    with pytest.raises(CellBudgetExceeded, match=f"enumeration.*{CELL_BUDGET_ENV}"):
        lattice_points(dilate(unit_square, 5))
    assert len(lattice_points(dilate(unit_square, 2))) == 9


def test_cell_budget_stops_a_4d_enumeration_inside_a_row(monkeypatch, cold_enumeration_cache):
    Q = P((-2, 0, 0, 0), (2, 0, 0, 0), (0, -2, 0, 0), (0, 2, 0, 0), (0, 0, -2, 0), (0, 0, 2, 0), (0, 0, 0, -3),
          (1, 1, 1, 3))
    box = product(*(range(min(c), max(c) + 1) for c in zip(*Q.vertices)))
    points = [p for p in box if contains(Q.desc, p)]
    # a row is a run of points with the same first three coordinates; take the
    # longest one and a budget that runs out just after its first point
    starts = [i for i, p in enumerate(points) if i == 0 or p[:3] != points[i - 1][:3]]
    lengths = [b - a for a, b in zip(starts, starts[1:] + [len(points)])]
    row = lengths.index(max(lengths))
    assert 0 < row < len(starts) - 1 and lengths[row] >= 3
    for budget in (starts[row] + 1, len(points) - 1):
        monkeypatch.setenv(CELL_BUDGET_ENV, str(budget))
        with pytest.raises(CellBudgetExceeded, match=f"more than {budget} points"):
            lattice_points(Q)
    monkeypatch.setenv(CELL_BUDGET_ENV, str(len(points)))
    assert lattice_points(Q).points == tuple(points)


def test_enumeration_caches_hold_at_most_the_cell_budget_of_points(
    monkeypatch, unit_square, unit_cube, cold_enumeration_cache
):
    monkeypatch.setenv(CELL_BUDGET_ENV, "200")
    # per cache, its misses in order; the cube's 8 points fill the row cache, which the square never reads
    sizes = {lattice_points: [len(lattice_points(unit_cube))], interior_lattice_points: []}
    assert _projection_rows.cache_info().currsize == 1
    minkowski_sum([unit_square, unit_square])  # a sum template, which holds no points
    assert _sum_template.cache_info().currsize == 1
    for n in range(1, 14):  # 196 points at n = 13, 1014 over all n in both modes
        for cache, missed in sizes.items():
            missed.append(len(cache(dilate(unit_square, n))))
            # a cache holding k entries holds its last k misses
            held = sum(sum(m[len(m) - c.cache_info().currsize:]) for c, m in sizes.items())
            assert held <= 200
    # the miss that passed the budget emptied every cache and kept its own result
    assert interior_lattice_points.cache_info().currsize < 13
    assert _projection_rows.cache_info().currsize == 0
    assert _sum_template.cache_info().currsize == 0
    interior_lattice_points(dilate(unit_square, 13))
    assert interior_lattice_points.cache_info().hits == 1


def test_translate_moves_lattice_points(unit_square):
    moved = translate(unit_square, (2, -1))
    assert moved.vertices == ((2, -1), (2, 0), (3, -1), (3, 0))
    assert len(lattice_points(moved).points) == 4


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_translate_matches_the_hull_of_shifted_vertices(data):
    # polytopes of every dimension k <= n in ambient dimension n = 1-4, spanned
    # by k random directions; the lower-dimensional ones carry equalities
    n = data.draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    dirs = data.draw(st.lists(st.tuples(*[coord] * n), max_size=n))
    base = data.draw(st.tuples(*[coord] * n))
    coeffs = data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(dirs)), min_size=1, max_size=6))
    Q = from_vertices([tuple(b + sum(c * w[i] for c, w in zip(cs, dirs)) for i, b in enumerate(base))
                       for cs in coeffs])
    v = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
    assert translate(Q, v) == from_vertices([tuple(map(add, p, v)) for p in Q.vertices])


# ---------------------------------------------------------------------------
# Minkowski and Cayley sums


def test_minkowski_sum_of_two_segments():
    M = minkowski_sum([P((0, 0), (1, 2)), P((0, 0), (1, 0))])
    assert M.vertices == ((0, 0), (1, 0), (1, 2), (2, 2))


def test_minkowski_sum_order_independent():
    parts = [P((0, 0), (1, 2)), P((0, 0), (1, 0)), P((0, 0), (0, 1))]
    M = minkowski_sum(parts)
    assert minkowski_sum(parts[::-1]) == M
    assert minkowski_sum([parts[1], parts[2], parts[0]]) == M


def test_minkowski_sum_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        minkowski_sum([P((0, 0), (1, 0)), P((0,), (1,))])


def _hull_of_vertex_sums(Ps):
    """The reference Minkowski sum: the hull of every sum of one vertex per factor."""
    return from_vertices([tuple(map(sum, zip(*vs))) for vs in product(*(Q.vertices for Q in Ps))])


@st.composite
def _dilated_tuples(draw):
    """1-3 factors in ambient dimension 1-4 (full-dimensional, on a hyperplane,
    or fewer points than that), each possibly translated, and every coefficient
    vector in {0, 1, 2}^m in a shuffled order."""
    n = draw(st.integers(1, 4))
    coord = st.integers(-2, 2)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=n + 3))
        if n > 1 and draw(st.booleans()):
            a = draw(st.tuples(*[st.integers(-1, 1)] * (n - 1)))
            pts = [p[:-1] + (dot(a, p[:-1]),) for p in pts]
        Q = from_vertices(pts)
        factors.append(translate(Q, draw(st.tuples(*[coord] * n))) if draw(st.booleans()) else Q)
    return factors, draw(st.permutations(list(product(range(3), repeat=len(factors)))))


@settings(max_examples=80, deadline=None)
@given(_dilated_tuples())
def test_minkowski_sums_of_dilates_match_the_hull_of_vertex_sums(case):
    factors, coeffs = case
    _sum_template.cache_clear()
    # the all-2 sum first: a doubled base builds the template its primitive base reads later
    for a in [(2,) * len(factors), *coeffs, *coeffs]:  # cold templates, then all warm
        Qs = [dilate(Q, x) for Q, x in zip(factors, a)]
        assert minkowski_sum(Qs) == _hull_of_vertex_sums(Qs), a


def _rebuilt(Q):
    d = Q.desc
    return LatticePolytope(DualDescription(d.ambient_dim, d.dim, d.vertices, d.facets, d.equalities))


@settings(max_examples=40, deadline=None)
@given(_dilated_tuples())
def test_trusted_dilates_and_sums_are_what_the_public_constructors_build(case):
    factors, coeffs = case
    built = [dilate(Q, t) for Q in factors for t in (0, 2, 3)]
    built += [minkowski_sum([dilate(Q, x) for Q, x in zip(factors, a)]) for a in coeffs]
    for Q in built:
        assert Q == _rebuilt(Q) and hash(Q) == hash(_rebuilt(Q))
        d = Q.desc
        assert list(d.vertices) == sorted(d.vertices) and list(d.facets) == sorted(d.facets)
        assert list(d.equalities) == sorted(d.equalities)
        # Fraction(2, 1) == 2, so only the types tell an int description from one left un-normalized
        cons = (*d.facets, *d.equalities)
        assert all(type(e) is tuple and type(e[0]) is tuple for e in cons)
        assert all(type(x) is int for x in [*(x for v in d.vertices for x in v), *(x for u, c in cons for x in (*u, c))])


def test_cayley_sum_of_two_segments_heights_leading():
    C = cayley_sum([P((1, 0), (0, 1)), P((1, 1), (-1, -1))])
    assert C.ambient_dim == 4
    assert C.dim == 3
    assert C.vertices == ((0, 1, -1, -1), (0, 1, 1, 1), (1, 0, 0, 1), (1, 0, 1, 0))
    # the height block is pinned to the standard basis
    assert Plane(normal=(1, 1, 0, 0), offset=1) in C.desc.equalities


def test_cayley_sum_example_pair():
    C = cayley_sum([P((0, 0), (1, 2)), P((0, 0), (1, 0))])
    assert C.vertices == ((0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, 1, 2))


def test_cayley_sum_lattice_points_are_factor_points():
    Ps = [P((0, 0), (2, 0)), P((0, 0), (0, 2)), P((1, 1))]
    C = cayley_sum(Ps)
    pts = lattice_points(C).points
    assert len(pts) == sum(len(lattice_points(Q).points) for Q in Ps)
    m = len(Ps)
    for p in pts:
        heights = p[:m]
        assert sorted(heights) == [0] * (m - 1) + [1]
        i = heights.index(1)
        assert p[m:] in lattice_points(Ps[i]).points


def test_dilate():
    T = P((0, 0), (1, 0), (0, 1))
    assert dilate(T, 1) == T
    assert dilate(T, 3).vertices == ((0, 0), (0, 3), (3, 0))
    assert dilate(T, 0).vertices == ((0, 0),)
    for bad in (-1, True, False, 2.0):
        with pytest.raises(GeometryError):
            dilate(T, bad)


@pytest.mark.parametrize("n", range(1, 6))
def test_dilate_by_zero_is_the_origin(n):
    Q = from_vertices([tuple(range(1, n + 1)), (2,) * n, (-1,) + (3,) * (n - 1)])
    assert dilate(Q, 0).desc == from_vertices([(0,) * n]).desc


def test_cayley_slice_counts_the_extra_point():
    Ps = [P((0, 0), (1, 2)), P((0, 0), (1, 0))]
    sl = cayley_slice(cayley_sum(Ps), (1, 1))
    assert len(sl.points) == 5
    projections = {p[2:] for p in sl.points}
    assert all(p[:2] == (1, 1) for p in sl.points)
    assert projections == {(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)}


def test_cayley_slice_zero_heights_allowed():
    Ps = [P((0, 0), (1, 0)), P((0, 0), (0, 1))]
    sl = cayley_slice(cayley_sum(Ps), (2, 0))
    assert {p[2:] for p in sl.points} == {(0, 0), (1, 0), (2, 0)}


@pytest.mark.parametrize("heights", [(1,), (1, 1, 0), (-1, 2)])
def test_cayley_slice_rejects_bad_heights(heights):
    C = cayley_sum([P((0, 0), (1, 0)), P((0, 0), (0, 1))])
    with pytest.raises(GeometryError):
        cayley_slice(C, heights)


# ---------------------------------------------------------------------------
# edges and normal fans


def test_edges_unit_square(unit_square):
    es = edges(unit_square)
    assert len(es) == 4
    assert all(e.lattice_length == 1 for e in es)


def test_edge_lattice_length_is_gcd():
    e, = edges(P((0, 0), (2, 4)))
    assert e.lattice_length == 2
    assert edges(P((1, 1)))== []


def test_normal_fan_coarsens_for_summands():
    Q = P((0, 0), (1, 0), (0, 1))
    R = P((0, 0), (1, 0), (1, 1), (0, 1))
    S = minkowski_sum([Q, R])
    assert normal_fan_coarsens(S, Q)
    assert normal_fan_coarsens(S, R)
    assert not normal_fan_coarsens(Q, R)


def test_normal_fan_coarsens_requires_full_dim():
    with pytest.raises(GeometryError):
        normal_fan_coarsens(P((0, 0), (1, 0)), P((0, 0), (1, 0), (0, 1)))


# ---------------------------------------------------------------------------
# randomized structure

ipoint = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=30, deadline=None)
@given(st.lists(ipoint, min_size=1, max_size=5), st.lists(ipoint, min_size=1, max_size=5))
def test_minkowski_vertices_are_pairwise_sums(pa, pb):
    A, B = from_vertices(pa), from_vertices(pb)
    M = minkowski_sum([A, B])
    sums = {tuple(x + y for x, y in zip(u, v)) for u in A.vertices for v in B.vertices}
    assert set(M.vertices) <= sums


@settings(max_examples=30, deadline=None)
@given(st.lists(ipoint, min_size=1, max_size=6), ipoint)
def test_translation_preserves_counts(pts, shift):
    A = from_vertices(pts)
    B = translate(A, shift)
    assert len(lattice_points(A).points) == len(lattice_points(B).points)
    assert len(interior_lattice_points(A).points) == len(interior_lattice_points(B).points)
    assert A.dim == B.dim
