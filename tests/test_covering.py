"""Covering deciders: translate covers in closed and relative-interior mode."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from latcayley import (
    CellBudgetExceeded,
    CoverageQuery,
    DimensionMismatch,
    GeometryError,
    PointSet,
    PropertyReport,
    Verdict,
    covers,
    covers_by_sampling,
    dilate,
    from_vertices,
    has_interior_translate_cover,
    interior_lattice_points,
    is_2_convex_normal,
    lattice_points,
    random_lattice_polytope,
    translate,
)
from latcayley.geometry import CELL_BUDGET_ENV, Mode, contains, dot

from conftest import load_fixture


def P(*verts):
    return from_vertices(verts)


def query(target, base, shifts, mode=Mode.CLOSED):
    return CoverageQuery(
        target=target,
        translate_base=base,
        translations=PointSet(target.ambient_dim, tuple(sorted(shifts))),
        mode=mode,
    )


def assert_witness_sound(q: CoverageQuery, res: PropertyReport):
    """Independent membership re-check of a not-covered witness."""
    assert res.witness is not None
    tmode = Mode.RELATIVE_INTERIOR if q.mode is Mode.RELATIVE_INTERIOR else Mode.CLOSED
    assert contains(q.target.desc, res.witness, tmode)
    for t in q.translations.points:
        shifted = translate(q.translate_base, t)
        assert not contains(shifted.desc, res.witness, tmode)


# ---------------------------------------------------------------------------
# pinned cases


def test_closed_chain_of_segments():
    q = query(P((0,), (2,)), P((0,), (1,)), [(0,), (1,)])
    assert covers(q).verdict is Verdict.HOLDS
    assert covers_by_sampling(q).verdict is Verdict.HOLDS


def test_closed_chain_with_gap():
    q = query(P((0,), (3,)), P((0,), (1,)), [(0,), (2,)])
    res = covers(q)
    assert res.verdict is Verdict.FAILS
    assert_witness_sound(q, res)


def test_double_reeve_uncovered_at_center(reeve):
    q = query(dilate(reeve, 2), reeve, lattice_points(reeve).points)
    res = covers(q)
    assert res.verdict is Verdict.FAILS
    assert res.witness == (1, 1, 1)
    assert_witness_sound(q, res)


def test_relint_double_square_pinched_at_center(unit_square):
    q = query(
        dilate(unit_square, 2),
        unit_square,
        lattice_points(unit_square).points,
        Mode.RELATIVE_INTERIOR,
    )
    res = covers(q)
    assert res.verdict is Verdict.FAILS
    assert res.witness == (1, 1)
    assert_witness_sound(q, res)


def test_cond01_unit_segment_misses_midpoint():
    res = has_interior_translate_cover(P((0,), (1,)))
    assert res.verdict is Verdict.FAILS
    assert res.witness == (1,)


def test_cond01_double_segment_holds():
    assert has_interior_translate_cover(P((0,), (2,))).verdict is Verdict.HOLDS


def test_cond01_double_square_holds(unit_square):
    assert has_interior_translate_cover(dilate(unit_square, 2)).verdict is Verdict.HOLDS


def test_2cn_unit_square(unit_square):
    assert is_2_convex_normal(unit_square).verdict is Verdict.HOLDS


def test_2cn_reeve_witness(reeve):
    res = is_2_convex_normal(reeve)
    assert res.verdict is Verdict.FAILS
    assert res.witness == (1, 1, 1)


def test_2cn_triple_reeve_covered(reeve):
    assert is_2_convex_normal(dilate(reeve, 3)).verdict is Verdict.HOLDS


def test_standard_triangle_not_2cn(simplex_2d):
    # 2T keeps a corner sliver beyond every lattice translate of T
    res = is_2_convex_normal(simplex_2d)
    assert res.verdict is Verdict.FAILS
    assert_witness_sound(
        query(dilate(simplex_2d, 2), simplex_2d, lattice_points(simplex_2d).points), res
    )


# ---------------------------------------------------------------------------
# validation and refusal


def test_query_requires_matching_dims(unit_square, segment):
    with pytest.raises(DimensionMismatch):
        CoverageQuery(
            target=unit_square,
            translate_base=segment,
            translations=PointSet(1, ((0,),)),
            mode=Mode.CLOSED,
        )


def test_query_requires_translations(unit_square):
    with pytest.raises(GeometryError):
        query(unit_square, unit_square, [])


def test_relint_rejects_thin_translate_when_it_matters(unit_square):
    # a segment translate neither spans the square's affine hull nor misses it;
    # the unit square has no interior lattice point, so no pre-pass shortcut
    q = query(
        unit_square, P((0, 0), (1, 0)), [(0, 0)], Mode.RELATIVE_INTERIOR
    )
    with pytest.raises(GeometryError):
        covers(q)


def test_sampling_refuses_oversized_arrangement(unit_square, monkeypatch):
    monkeypatch.setenv(CELL_BUDGET_ENV, "3")
    q = query(dilate(unit_square, 2), unit_square, lattice_points(unit_square).points)
    with pytest.raises(CellBudgetExceeded):
        covers_by_sampling(q)


def test_subtraction_refuses_on_tiny_budget(monkeypatch):
    # interior pre-pass cannot settle a covered closed query, so the
    # subtraction engine runs and must respect the budget
    monkeypatch.setenv(CELL_BUDGET_ENV, "1")
    sq = P((0, 0), (1, 0), (0, 1), (1, 1))
    q = query(dilate(sq, 2), sq, lattice_points(sq).points)
    with pytest.raises(CellBudgetExceeded):
        covers(q)


# ---------------------------------------------------------------------------
# decider agreement and structural properties


def _random_polytope(rng: random.Random, dim: int):
    return random_lattice_polytope(rng.randrange(2**30), dim, dim, coord_bound=2)


def _random_query(rng: random.Random, mode):
    dim = rng.choice([1, 1, 2])
    base = _random_polytope(rng, dim)
    target = dilate(base, 2)
    pool = list(lattice_points(base).points)
    k = rng.randint(1, len(pool))
    shifts = rng.sample(pool, k)
    if mode is Mode.RELATIVE_INTERIOR and base.dim < target.dim:
        return None
    return query(target, base, shifts, mode)


@pytest.mark.parametrize("mode", [Mode.CLOSED, Mode.RELATIVE_INTERIOR])
def test_subtraction_agrees_with_sampling(mode):
    rng = random.Random(20240 + (mode is Mode.CLOSED))
    checked = 0
    while checked < 25:
        q = _random_query(rng, mode)
        if q is None:
            continue
        a = covers(q)
        b = covers_by_sampling(q)
        assert a.verdict is b.verdict, q
        if a.verdict is Verdict.FAILS:
            assert_witness_sound(q, a)
            assert_witness_sound(q, b)
        checked += 1


def test_closed_failure_has_full_dimensional_cell(reeve):
    """A closed-mode failure leaves a full-dimensional uncovered cell: some
    uncovered sample sits strictly off every hyperplane, and a second point
    of the same cell is uncovered as well."""
    from latcayley import arrangement_sample_points
    from latcayley.geometry import Hyperplane

    q = query(dilate(reeve, 2), reeve, lattice_points(reeve).points)
    assert covers_by_sampling(q).verdict is Verdict.FAILS
    planes = []
    shifted = [translate(q.translate_base, t) for t in q.translations.points]
    for S in shifted:
        for normal, offset in S.desc.facets:
            planes.append((normal, offset))
    for normal, offset in q.target.desc.facets:
        planes.append((normal, offset))
    unique = list({Hyperplane.through(n, c) for n, c in planes})
    samples = arrangement_sample_points(unique, q.target.desc)
    open_uncovered = [
        w
        for w in samples
        if all(dot(h.normal, w) != h.offset for h in unique)
        and contains(q.target.desc, w)
        and not any(contains(S.desc, w) for S in shifted)
    ]
    assert open_uncovered, "no uncovered open cell: completeness violated"
    w = open_uncovered[0]
    # a step below half the minimum slack keeps every strict sign
    slack = min(abs(dot(h.normal, w) - h.offset) for h in unique)
    j = 0
    step = slack / (2 * max(abs(h.normal[j]) for h in unique))
    w2 = (w[0] + step,) + tuple(w[1:])
    assert w2 != w
    assert contains(q.target.desc, w2)
    assert not any(contains(S.desc, w2) for S in shifted)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_covering_monotone_in_translations(seed, data):
    rng = random.Random(seed)
    base = _random_polytope(rng, rng.choice([1, 2]))
    target = dilate(base, 2)
    pool = list(lattice_points(base).points)
    small_k = data.draw(st.integers(1, len(pool)), label="small")
    small = rng.sample(pool, small_k)
    extra = data.draw(st.integers(0, len(pool) - small_k), label="extra")
    big = small + [p for p in pool if p not in small][:extra]
    q_small = query(target, base, small)
    q_big = query(target, base, big)
    if covers(q_small).verdict is Verdict.HOLDS:
        assert covers(q_big).verdict is Verdict.HOLDS


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_relint_cover_implies_closed_cover(seed):
    rng = random.Random(seed)
    base = _random_polytope(rng, rng.choice([1, 2]))
    target = dilate(base, 2)
    shifts = lattice_points(base).points
    if covers(query(target, base, shifts, Mode.RELATIVE_INTERIOR)).verdict is Verdict.HOLDS:
        assert covers(query(target, base, shifts, Mode.CLOSED)).verdict is Verdict.HOLDS


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_dilates_are_2_convex_normal_at_dimension(seed, dim):
    P_ = random_lattice_polytope(seed, dim, dim, coord_bound=2)
    for n in range(dim, dim + 3):
        assert is_2_convex_normal(dilate(P_, n)).verdict is Verdict.HOLDS


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_dilate_past_dimension_gets_interior_cover(seed, dim):
    P_ = random_lattice_polytope(seed, dim, dim, coord_bound=2)
    Q = dilate(P_, dim + 1)
    assert interior_lattice_points(Q).points
    assert has_interior_translate_cover(Q).verdict is Verdict.HOLDS
