"""Property deciders: IDP, tuple-IDP, level, Gorenstein, edge criterion."""

import math
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from latcayley import (
    CoverageQuery,
    DimensionMismatch,
    GeometryError,
    PointSet,
    PropertyReport,
    Verdict,
    cayley_slice,
    cayley_sum,
    dilate,
    edge_length_criterion,
    edges,
    from_vertices,
    interior_lattice_points,
    is_2_convex_normal,
    is_gorenstein,
    is_idp,
    is_tuple_idp,
    lattice_points,
    level_index,
    level_status,
    minkowski_sum,
    point_set_sum,
    random_lattice_polytope,
    translate,
)

from latcayley import properties
from latcayley.covering import _lattice_witness
from latcayley.geometry import Mode, contains, vec_sub

from conftest import run_optimized


def P(*verts):
    return from_vertices(verts)


# ---------------------------------------------------------------------------
# point_set_sum


def test_point_set_sum_basic():
    A = PointSet(2, ((0, 0), (1, 0)))
    B = PointSet(2, ((0, 0), (0, 1)))
    assert point_set_sum(A, B).points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_point_set_sum_identity_and_commutativity():
    A = PointSet(2, ((0, 0), (1, 2), (2, 1)))
    zero = PointSet(2, ((0, 0),))
    assert point_set_sum(A, zero) == A
    B = PointSet(2, ((1, 1), (-1, 0)))
    assert point_set_sum(A, B) == point_set_sum(B, A)


def test_point_set_sum_empty_and_zero_dimensional():
    empty, origin = PointSet(2, ()), PointSet(0, ((),))
    assert point_set_sum(empty, PointSet(2, ((1, 1),))) == empty
    assert point_set_sum(origin, origin) == origin
    assert point_set_sum(origin, PointSet(0, ())) == PointSet(0, ())


def test_point_set_sum_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        point_set_sum(PointSet(2, ((0, 0),)), PointSet(1, ((0,),)))


def columnar_sum(A, B):
    """{a + b} over every point pair, summed column by column: the reference
    for the run-packed ``point_set_sum``."""
    if A.ambient_dim == 0:
        return A if len(B) else B
    cols = tuple(zip(*B.points))
    sums = set()
    for a in A.points:
        sums.update(zip(*[[x + y for y in col] for x, col in zip(a, cols)]))
    return PointSet(A.ambient_dim, tuple(sums))


@st.composite
def point_sets(draw, n):
    """Arbitrary point sets, not lattice points of a polytope: scattered, with
    gapped rows, with a constant last coordinate, diagonal, or one point."""
    coord = st.integers(-6, 6)
    point = st.tuples(*[coord] * n)
    kind = draw(st.sampled_from(["scattered", "gapped rows", "constant last", "diagonal", "one point"]))
    if kind == "one point":
        pts = [draw(point)]
    elif kind == "diagonal":
        pts = [(t,) * n for t in draw(st.lists(coord, max_size=8))]
    elif kind == "gapped rows":
        pts = []
        for head in draw(st.lists(st.tuples(*[coord] * (n - 1)), min_size=1, max_size=4)):
            for lo, length in draw(st.lists(st.tuples(coord, st.integers(1, 5)), min_size=1, max_size=3)):
                pts += [(*head, x) for x in range(lo, lo + length)]
    else:
        pts = draw(st.lists(point, max_size=12))
        if kind == "constant last":
            c = draw(coord)
            pts = [(*p[:-1], c) for p in pts]
    return PointSet(n, tuple(pts))


SQUARE = PointSet(2, ((0, 0), (0, 1), (1, 0), (1, 1)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(point_sets(n), point_sets(n))))
# a run of A's codes crosses rows unless the last digit has a spare value
@example((SQUARE, PointSet(2, ((3, -2),))))
@example((PointSet(2, ((0, 5),)), SQUARE))
# one row with a gap on each side, and runs whose lengths add up to the row width
@example((PointSet(2, ((0, 0), (0, 1), (0, 4))), PointSet(2, ((0, 0), (0, 3), (0, 4)))))
@example((PointSet(1, ((0,), (1,), (2,))), PointSet(1, ((-1,), (0,)))))
@example((PointSet(3, ((-1, -1, -1), (0, 0, 0), (2, 2, 2))), PointSet(3, ((1, 1, 1), (3, 3, 3)))))
@example((PointSet(4, ()), PointSet(4, ((1, -2, 3, -4),))))
def test_point_set_sum_matches_pairwise_off_convex_inputs(pair):
    A, B = pair
    pairwise = {tuple(x + y for x, y in zip(a, b)) for a in A for b in B}
    assert point_set_sum(A, B).points == tuple(sorted(pairwise))
    assert point_set_sum(A, B) == columnar_sum(A, B)
    assert point_set_sum(B, A) == columnar_sum(B, A)


def assert_canonical_rows(S):
    """S's rows are maximal runs in lexicographic order and expand to S.points."""
    for (p, lo, hi), (q, lo2, _) in zip(S.rows, S.rows[1:]):
        assert p < q or (p == q and hi + 1 < lo2), (S.rows, p, q)
    assert all(len(p) == S.ambient_dim - 1 and lo <= hi for p, lo, hi in S.rows)
    assert S.points == tuple((*p, x) for p, lo, hi in S.rows for x in range(lo, hi + 1))


def sets_and_queries(n):
    return st.tuples(point_sets(n), point_sets(n), st.lists(st.tuples(*[st.integers(-7, 7)] * n), max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(sets_and_queries))
@example((PointSet(2, ()), SQUARE, []))
@example((SQUARE, PointSet(2, ()), [(0, 2), (1, -1)]))
@example((PointSet(1, ((0,), (1,), (3,))), PointSet(1, ((1,), (2,), (3,), (4,))), [(2,)]))
def test_point_set_rows_are_canonical_and_agree_with_points(triple):
    A, B, queries = triple
    S = point_set_sum(A, B)  # built from rows
    assert len(S) == sum(hi - lo + 1 for _, lo, hi in S.rows) and "points" not in vars(S)  # len builds no tuples
    for T in (A, B, S):
        assert_canonical_rows(T)
        U = PointSet(T.ambient_dim, T.points[::-1])  # built from points
        assert (U, hash(U), U.rows) == (T, hash(T), T.rows)
        near = [(*p[:-1], p[-1] + d) for p in T.points for d in (-1, 1)]
        for q in list(T.points) + near + queries + [q[:-1] for q in queries]:
            assert (q in T) == (tuple(q) in set(T.points)), (T, q)
    for X, Y in ((A, B), (B, A), (A, S), (S, A), (S, S)):
        assert list(X.not_in(Y)) == sorted(set(X.points) - set(Y.points))


def test_point_set_rows_in_ambient_dimension_zero():
    empty, origin = PointSet(0, ()), PointSet(0, ((),))
    assert (empty.rows, origin.rows) == ((), (((), 0, 0),))
    assert (len(empty), len(origin), origin.points) == (0, 1, ((),))
    assert () in origin and () not in empty and (0,) not in origin
    assert lattice_points(from_vertices([()])) == origin
    C = cayley_sum([from_vertices([()])] * 2)  # factors in Z^0: each slice is one point
    assert [cayley_slice(C, a).points for a in ((0, 0), (2, 0), (1, 1))] == [((0, 0),), ((2, 0),), ((1, 1),)]
    assert (list(origin.not_in(empty)), list(origin.not_in(origin)), list(empty.not_in(origin))) == ([()], [], [])


# ---------------------------------------------------------------------------
# the row-wise re-check and fallback of _first_missing


def seeded_point_set(rng, n):
    """Scattered points and gapped runs of the last coordinate in [-4, 4]^n; may be empty."""
    coord = lambda: rng.randint(-4, 4)
    pts = [tuple(coord() for _ in range(n)) for _ in range(rng.randint(0, 6))]
    for _ in range(rng.randint(0, 3) if n else 0):
        head, lo = tuple(coord() for _ in range(n - 1)), coord()
        pts += [(*head, x) for x in range(lo, lo + rng.randint(1, 5))]
    return PointSet(n, pts)


def seeded_queries(rng, n, S):
    """S's points, their neighbours along the last coordinate, and points far
    outside the box of either factor."""
    near = [(*p[:-1], p[-1] + d) for p in S.points for d in (-1, 1)] if n else []
    far = [tuple(rng.randint(-15, 15) for _ in range(n)) for _ in range(6)]
    return [*S.points, *near, *far, (-20,) * n, (20,) * n]


def test_row_wise_sum_recheck_matches_the_pointwise_one():
    seen = set()
    for n, seed in product(range(5), range(40)):
        rng = random.Random(100 * n + seed)
        S, T = seeded_point_set(rng, n), seeded_point_set(rng, n)
        for w in seeded_queries(rng, n, point_set_sum(S, T)):
            pointwise = any(vec_sub(w, t) in S for t in T)
            assert properties._in_sum(w, S, T) == pointwise, (S, T, w)
            seen.add((n, pointwise))
    assert seen == set(product(range(5), (False, True)))


def test_row_wise_fallback_matches_the_pointwise_one():
    # D ranges over every dimension up to its ambient one, so lower-dimensional
    # D bring equality rows.  Below, the facets of the segment ask y in [3, 5]
    # of G's row ((1,), 0, 1), whose interval empties, and its row ((1,), 3, 4) holds
    segment = from_vertices([(0, 0), (0, 2)])
    G = PointSet(2, ((1, 0), (1, 1), (1, 3), (1, 4), (2, 0)))
    assert properties._in_translates((1, 5), G, segment)
    assert not properties._in_translates((1, 5), PointSet(2, ((1, 0), (1, 1), (2, 0))), segment)
    seen = set()
    for n, seed in product(range(5), range(25)):
        rng = random.Random(100 * n + seed)
        d = rng.randint(0, n)
        polytope = lambda s, d: random_lattice_polytope(s, n, d, 2, d + 2) if n else from_vertices([()])
        D = dilate(polytope(seed, d), rng.randint(1, 2))
        G = seeded_point_set(rng, n) if seed % 2 else lattice_points(polytope(seed + 1, rng.randint(0, n)))
        for w in seeded_queries(rng, n, point_set_sum(G, lattice_points(D))):
            pointwise = any(contains(D.desc, vec_sub(w, g)) for g in G)
            assert properties._in_translates(w, G, D) == pointwise, (G, D.desc, w)
            seen.add((n, bool(D.desc.equalities), pointwise))
    assert {(n, True, b) for n in range(1, 5) for b in (False, True)} <= seen
    assert {(n, False, b) for n in range(5) for b in (False, True)} <= seen


# ---------------------------------------------------------------------------
# IDP


def test_idp_unit_square(unit_square):
    rep = is_idp(unit_square)
    assert rep.verdict is Verdict.HOLDS
    assert rep.witness is None
    assert rep.degrees_checked == (2, 2)


def test_idp_unit_cube(unit_cube):
    assert is_idp(unit_cube).verdict is Verdict.HOLDS


def test_idp_reeve_fails_with_reverifiable_witness(reeve):
    rep = is_idp(reeve)
    assert rep.verdict is Verdict.FAILS
    n, pt = rep.witness
    assert (n, pt) == (2, (1, 1, 1))
    # independent re-check of the defining equality at the witness degree
    assert pt in lattice_points(dilate(reeve, n)).points
    reachable = point_set_sum(lattice_points(dilate(reeve, n - 1)), lattice_points(reeve))
    assert pt not in reachable.points


def test_idp_witness_recheck_survives_optimized_mode():
    # with membership broken, the re-check of a missing point must still
    # raise when ``python -O`` strips asserts
    proc = run_optimized(
        "from latcayley import from_vertices, is_idp, properties\n"
        "properties.contains = lambda *a, **k: False\n"
        "is_idp(from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]))\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: missing point (1, 1, 1) failed its re-check" in proc.stderr


def test_a_dropped_sum_row_fails_the_recheck_in_optimized_mode():
    # a kernel that loses a row must not pass for a failing degree, nor be
    # covered by the level scan's fallback, when ``python -O`` strips asserts
    for check, w in (("is_idp", "(0, 0)"), ("level_status", "(1, 1)")):
        proc = run_optimized(
            "from latcayley import from_vertices, is_idp, level_status, properties\n"
            "from latcayley.polytope import PointSet\n"
            "kernel = properties.point_set_sum\n"
            "properties.point_set_sum = lambda A, B: PointSet._from_rows(A.ambient_dim, kernel(A, B).rows[1:])\n"
            f"{check}(from_vertices([(0, 0), (2, 0), (0, 2)]))\n"
        )
        assert proc.returncode != 0
        assert f"AssertionError: missing point {w} failed its re-check" in proc.stderr, proc.stderr


def test_idp_respects_max_degree(reeve):
    rep = is_idp(reeve, max_degree=5)
    assert rep.verdict is Verdict.FAILS
    assert rep.degrees_checked[0] == 2
    # a bound below the first checkable degree leaves nothing to check
    with pytest.raises(GeometryError):
        is_idp(reeve, max_degree=1)


def test_idp_below_the_certificate_degree_states_its_horizon():
    # the 4-cube is IDP, but only degrees up to max(2, 4 - 1) = 3 certify it
    cube = from_vertices(list(product((0, 1), repeat=4)))
    rep = is_idp(cube, max_degree=2)
    assert rep.verdict is Verdict.VERIFIED_UP_TO_HORIZON
    assert (rep.degrees_checked, rep.horizon_used) == ((2, 2), 2)
    holds = PropertyReport("idp", Verdict.HOLDS, None, (2, 3))
    assert is_idp(cube) == is_idp(cube, max_degree=3) == holds


def test_idp_translation_invariant(reeve, unit_square):
    assert is_idp(translate(reeve, (3, -2, 5))).verdict is Verdict.FAILS
    assert is_idp(translate(unit_square, (-7, 9))).verdict is Verdict.HOLDS


# ---------------------------------------------------------------------------
# tuple IDP


def test_tuple_idp_singleton_always_holds(unit_square):
    assert is_tuple_idp([unit_square]).verdict is Verdict.HOLDS


def test_tuple_idp_squares_hold(unit_square):
    assert is_tuple_idp([unit_square, unit_square]).verdict is Verdict.HOLDS


def test_tuple_idp_steep_segment_pair_fails():
    P1, P2 = P((0, 0), (1, 2)), P((0, 0), (1, 0))
    rep = is_tuple_idp([P1, P2])
    assert rep.verdict is Verdict.FAILS
    subset, pt = rep.witness
    assert subset == (1, 2)
    assert pt == (1, 1)
    # (1,1) is in the sum polytope but not in the sum of the point sets
    assert pt in lattice_points(minkowski_sum([P1, P2])).points
    assert pt not in point_set_sum(lattice_points(P1), lattice_points(P2)).points


def test_tuple_idp_needs_common_dim(unit_square, segment):
    with pytest.raises(DimensionMismatch):
        is_tuple_idp([unit_square, segment])


# ---------------------------------------------------------------------------
# level and Gorenstein


def test_level_index_unit_square(unit_square):
    data = level_index(unit_square)
    assert data.index_r == 2
    assert data.interior_generators.points == ((1, 1),)


def test_level_index_bounded_by_dim_plus_one():
    for seed in range(8):
        Q = random_lattice_polytope(seed, 2, 2, coord_bound=3)
        assert level_index(Q).index_r <= Q.dim + 1


def test_level_status_unit_square(unit_square):
    rep = level_status(unit_square)
    assert rep.verdict is Verdict.VERIFIED_UP_TO_HORIZON
    assert rep.degrees_checked == (2, 3)
    assert rep.horizon_used == 3


def test_level_status_never_claims_holds(unit_square, segment):
    for Q in (unit_square, segment):
        assert level_status(Q).verdict in (Verdict.VERIFIED_UP_TO_HORIZON, Verdict.FAILS)


def test_level_status_rejects_horizon_below_index(unit_square):
    with pytest.raises(GeometryError):
        level_status(unit_square, horizon=1)


def test_level_fails_for_cayley_pair_with_reverifiable_witness():
    C = cayley_sum([P((1, 0), (0, 1)), P((1, 1), (-1, -1))])
    rep = level_status(C)
    assert rep.verdict is Verdict.FAILS
    n, pt = rep.witness
    assert (n, pt) == (3, (2, 1, 1, 1))
    r = level_index(C).index_r
    assert pt in interior_lattice_points(dilate(C, n)).points
    reachable = point_set_sum(
        interior_lattice_points(dilate(C, r)), lattice_points(dilate(C, n - r))
    )
    assert pt not in reachable.points


def test_gorenstein_unit_square(unit_square):
    rep = is_gorenstein(unit_square)
    assert rep.verdict is Verdict.VERIFIED_UP_TO_HORIZON
    assert rep.degrees_checked[0] == 2


def test_gorenstein_double_segment():
    rep = is_gorenstein(P((0,), (2,)))
    assert rep.verdict is Verdict.VERIFIED_UP_TO_HORIZON
    assert rep.degrees_checked[0] == 1


def test_gorenstein_fails_on_two_generators():
    # interior of the first dilate already holds two lattice points
    M = minkowski_sum([P((1, 0), (0, 1)), P((1, 1), (-1, -1))])
    assert level_index(M).index_r == 1
    assert len(level_index(M).interior_generators.points) == 2
    rep = is_gorenstein(M)
    assert rep.verdict is Verdict.FAILS
    r, second = rep.witness
    assert r == 1
    assert second in level_index(M).interior_generators.points


def test_gorenstein_passes_level_failure_through():
    C = cayley_sum([P((1, 0), (0, 1)), P((1, 1), (-1, -1))])
    assert is_gorenstein(C).verdict is Verdict.FAILS


# ---------------------------------------------------------------------------
# Ehrhart h* oracle: the level deciders against counts alone


def h_star(Q):
    """h*_0..h*_d of Q, from (1-t)^(d+1) * sum |nQ cap Z| t^n cut at degree d;
    it needs only the point counts of 0Q..dQ."""
    d = Q.dim
    counts = [len(lattice_points(dilate(Q, n))) for n in range(d + 1)]
    return [sum((-1) ** j * math.comb(d + 1, j) * counts[k - j] for j in range(k + 1)) for k in range(d + 1)]


def h_star_corpus():
    """60 polygons, 30 3-polytopes, and 20 Cayley sums of polygon or segment pairs."""
    polygons = [random_lattice_polytope(seed, 2, 2, coord_bound=2) for seed in range(60)]
    solids = [random_lattice_polytope(seed, 3, 3, coord_bound=2) for seed in range(30)]
    cayleys = [
        cayley_sum([random_lattice_polytope(2 * seed + k, 2, 1 + (seed >> k) % 2, coord_bound=1) for k in (0, 1)])
        for seed in range(20)
    ]
    return polygons + solids + cayleys


def test_level_deciders_match_the_ehrhart_h_star_oracle():
    gorenstein = failures = 0
    for Q in h_star_corpus():
        d, h = Q.dim, h_star(Q)
        s = max(k for k, c in enumerate(h) if c)
        # reciprocity: |int(nQ) cap Z| = sum_k h*_k C(n+k-1, d)
        for n in range(1, d + 2):
            assert len(interior_lattice_points(dilate(Q, n))) == sum(
                c * math.comb(n + k - 1, d) for k, c in enumerate(h)
            ), (Q.vertices, n)
        r = level_index(Q).index_r
        assert r == d + 1 - s, Q.vertices
        # Stanley: Gorenstein exactly when h* is palindromic
        palindromic = h[: s + 1] == h[s::-1]
        assert palindromic == (is_gorenstein(Q, d + 1).verdict is not Verdict.FAILS), Q.vertices
        gorenstein += palindromic
        # the d+1 bound: a scan well past it finds no failure above it, and
        # the default scan, to d+1, reads the same
        rep = level_status(Q, r + d + 4)
        default = level_status(Q)
        assert (default.verdict, default.witness) == (rep.verdict, rep.witness), Q.vertices
        if rep.verdict is Verdict.FAILS:
            failures += 1
            assert rep.witness[0] <= d + 1, (Q.vertices, rep.witness)
    assert gorenstein and failures



def test_edge_criterion_threshold():
    # threshold for dim 2 is 2*2*3 = 12
    assert edge_length_criterion(dilate(P((0, 0), (1, 0), (0, 1)), 12)).verdict is Verdict.HOLDS
    assert edge_length_criterion(dilate(P((0, 0), (1, 0), (0, 1)), 11)).verdict is Verdict.FAILS
    assert edge_length_criterion(P((0, 0), (1, 0), (0, 1))).verdict is Verdict.FAILS


@pytest.mark.parametrize("verts, factor", [
    (((0, 0), (1, 0), (0, 1)), 11),
    (((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)), 3),
    (((0,), (1,)), 3),
])
def test_edge_criterion_witness_is_first_short_edge(verts, factor):
    Q = dilate(from_vertices(verts), factor)
    rep = edge_length_criterion(Q)
    assert rep.verdict is Verdict.FAILS
    length, endpoints = rep.witness
    threshold = 2 * Q.dim * (Q.dim + 1)
    assert length < threshold
    short = [e for e in edges(Q) if e.lattice_length < threshold]
    assert (short[0].lattice_length, short[0].endpoints) == (length, endpoints)
    a, b = endpoints
    assert math.gcd(*(x - y for x, y in zip(a, b))) == length


def test_edge_criterion_rejects_points():
    with pytest.raises(GeometryError):
        edge_length_criterion(P((3, 3)))


def test_edge_criterion_implies_idp():
    Q = dilate(P((0, 0), (1, 0), (0, 1)), 12)
    assert edge_length_criterion(Q).verdict is Verdict.HOLDS
    assert is_idp(Q).verdict is Verdict.HOLDS


@pytest.mark.parametrize("verts, factor", [
    (((0,), (1,)), 4),
    (((0, 0), (1, 0), (0, 1)), 12),
])
def test_edge_criterion_implies_2_convex_normal(verts, factor):
    Q = dilate(from_vertices(verts), factor)
    assert edge_length_criterion(Q).verdict is Verdict.HOLDS
    assert is_2_convex_normal(Q).verdict is Verdict.HOLDS


# ---------------------------------------------------------------------------
# zero-dimensional conventions


def test_point_polytope_is_idp_and_level_one():
    pt = P((3, 3))
    assert is_idp(pt).verdict is Verdict.HOLDS
    data = level_index(pt)
    assert data.index_r == 1
    assert data.interior_generators.points == ((3, 3),)
    gor = is_gorenstein(pt)
    assert gor.verdict is Verdict.VERIFIED_UP_TO_HORIZON
    assert gor.degrees_checked[0] == 1


# ---------------------------------------------------------------------------
# report structure


def test_property_report_requires_witness_only_on_fails():
    with pytest.raises(ValueError):
        PropertyReport("idp", Verdict.FAILS, None, (2, 2), None)
    with pytest.raises(ValueError):
        PropertyReport("idp", Verdict.HOLDS, (2, (0, 0)), (2, 2), None)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_idp_verdicts_are_never_horizon_qualified(seed, dim):
    Q = random_lattice_polytope(seed, dim, dim, coord_bound=3)
    assert is_idp(Q).verdict in (Verdict.HOLDS, Verdict.FAILS)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6))
def test_level_translation_invariant(seed):
    Q = random_lattice_polytope(seed, 2, 2, coord_bound=3)
    moved = translate(Q, (11, -4))
    assert level_index(Q).index_r == level_index(moved).index_r
    assert level_status(Q).verdict == level_status(moved).verdict


# ---------------------------------------------------------------------------
# reference implementations: one plain sumset scan per question


def first_not_in(lhs, rhs):
    have = set(rhs.points)
    return next((p for p in lhs if p not in have), None)


def ref_idp_witness(P):
    gens = lattice_points(P)
    for n in range(2, max(2, P.dim - 1) + 1):
        rhs = point_set_sum(lattice_points(dilate(P, n - 1)), gens)
        w = first_not_in(lattice_points(dilate(P, n)), rhs)
        if w is not None:
            return (n, w)
    return None


def ref_tuple_idp_witness(Ps):
    for size in range(1, len(Ps) + 1):
        for I in combinations(range(len(Ps)), size):
            rhs = lattice_points(Ps[I[0]])
            for i in I[1:]:
                rhs = point_set_sum(rhs, lattice_points(Ps[i]))
            w = first_not_in(lattice_points(minkowski_sum([Ps[i] for i in I])), rhs)
            if w is not None:
                return (tuple(i + 1 for i in I), w)
    return None


def ref_level_witness(P, horizon):
    data = level_index(P)
    r, gens = data.index_r, data.interior_generators
    for n in range(r, horizon + 1):
        rhs = gens if n == r else point_set_sum(gens, lattice_points(dilate(P, n - r)))
        w = first_not_in(interior_lattice_points(dilate(P, n)), rhs)
        if w is not None:
            return (n, w)
    return None


def ref_lattice_witness(q):
    region = lattice_points(q.target) if q.mode is Mode.CLOSED else interior_lattice_points(q.target)
    for x in region:
        if not any(contains(q.translate_base.desc, vec_sub(x, t), q.mode) for t in q.translations):
            return x
    return None


def ref_cayley_slice(Ps, a, mode):
    C = dilate(cayley_sum(Ps), sum(a))
    points = lattice_points(C) if mode is Mode.CLOSED else interior_lattice_points(C)
    return PointSet(C.ambient_dim, tuple(p for p in points if p[:len(Ps)] == a))


@st.composite
def polytope_pairs(draw):
    n = draw(st.integers(1, 2))
    pts = st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4)
    return from_vertices(draw(pts)), from_vertices(draw(pts))


@settings(max_examples=60, deadline=None)
@given(polytope_pairs())
# the ex19 (moved into [0, 2]^2) and ex24 fixture pairs: IDP of the Cayley sum
# and tuple IDP fail on both, levelness of the ex19 Cayley sum at degree 3
@example((P((0, 1), (1, 0)), P((0, 0), (2, 2))))
@example((P((0, 0), (1, 2)), P((0, 0), (1, 0))))
def test_deciders_match_reference_sumset_scans(pair):
    P, Q = pair
    C = cayley_sum(pair)
    for A, B in ((lattice_points(P), lattice_points(Q)), (lattice_points(C), lattice_points(C))):
        pairwise = {tuple(x + y for x, y in zip(a, b)) for a in A for b in B}
        assert point_set_sum(A, B).points == tuple(sorted(pairwise))
    for R in (P, C):
        assert is_idp(R).witness == ref_idp_witness(R)
    for Ps in ([P, Q], [P, Q, P], [P, Q, P, Q]):
        assert is_tuple_idp(Ps).witness == ref_tuple_idp_witness(Ps)
    for R, horizon in ((P, None), (minkowski_sum(pair), None), (C, level_index(C).index_r + 1)):
        rep = level_status(R, horizon)
        assert rep.witness == ref_level_witness(R, rep.horizon_used)
    for mode in Mode:
        for shifts in (lattice_points(P), lattice_points(Q)):
            q = CoverageQuery(dilate(P, 2), P, shifts, mode)
            assert _lattice_witness(q) == ref_lattice_witness(q)
    for a in ((0, 0), (1, 0), (1, 2), (2, 1)):
        assert cayley_slice(C, a) == ref_cayley_slice(pair, a, Mode.CLOSED)
    for a in ((1, 1), (1, 2), (2, 1)):
        assert cayley_slice(C, a, Mode.RELATIVE_INTERIOR) == ref_cayley_slice(pair, a, Mode.RELATIVE_INTERIOR)


@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_level_scan_places_points_outside_the_previous_degree_sum(h):
    # Reeve tetrahedra (heights 2 and 4 are the reeve fixtures): r = 2 and the
    # horizon is 4, and int(3R) + R cap Z misses one point of int(4R), so the
    # incremental scan's membership fallback must place it
    R = P((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, h))
    X = point_set_sum(interior_lattice_points(dilate(R, 3)), lattice_points(R))
    assert (len(X), len(interior_lattice_points(dilate(R, 4)))) == (10 * (h - 1), 10 * (h - 1) + 1)
    rep = level_status(R)
    assert (rep.verdict, rep.degrees_checked) == (Verdict.VERIFIED_UP_TO_HORIZON, (2, 4))
    assert rep.witness == ref_level_witness(R, 4)


def test_level_scan_matches_the_full_sumset_reference_on_3_polytopes():
    past_first_sum = 0  # scans that reached a degree n >= r + 2, where the fallback runs
    for seed in range(200):
        R = random_lattice_polytope(seed, 3, 3, coord_bound=2, n_points=4 + seed % 4)
        rep = level_status(R)
        assert rep.witness == ref_level_witness(R, rep.horizon_used), seed
        r = rep.degrees_checked[0]
        past_first_sum += rep.horizon_used >= r + 2 and (rep.witness is None or rep.witness[0] >= r + 2)
    assert past_first_sum >= 20


@pytest.mark.parametrize("check", ["is_idp", "is_tuple_idp", "level_status"])
def test_decomposition_checks_call_the_module_binding_of_point_set_sum(check, monkeypatch, unit_square):
    # an outside tracer wraps properties.point_set_sum, so each decomposition
    # check must reach the kernel through that module name
    calls = []

    def counting(A, B):
        calls.append((A, B))
        return point_set_sum(A, B)

    monkeypatch.setattr(properties, "point_set_sum", counting)
    args = {"is_idp": (unit_square,), "is_tuple_idp": ([unit_square, unit_square],), "level_status": (unit_square,)}
    getattr(properties, check)(*args[check])
    assert calls


def test_tuple_idp_forms_one_sum_per_subset(monkeypatch):
    # each subset I adds the generators of its last member to the lattice
    # points of its prefix's sum, certified when the prefix passed: four unit
    # segments take one sum for each of their 6 + 4 + 1 subsets of size >= 2
    calls = []

    def counting(A, B):
        calls.append((A, B))
        return point_set_sum(A, B)

    monkeypatch.setattr(properties, "point_set_sum", counting)
    H, V = P((0, 0), (1, 0)), P((0, 0), (0, 1))
    assert is_tuple_idp([H, V, H, V]).verdict is Verdict.HOLDS
    assert len(calls) == 11
