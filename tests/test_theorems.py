"""Statement-level invariants, checked on small random instances.

Each test encodes one implication the deciders are expected to certify:
dilation thresholds for the unimodular decomposition property, covering
certificates propagating to sums, and level indices of Minkowski versus
Cayley sums.  Sizes are kept small; the heavier randomized sweeps live in
the campaign runner.
"""

from hypothesis import given, settings, strategies as st

from latcayley import (
    Verdict,
    cayley_sum,
    dilate,
    has_interior_translate_cover,
    interior_lattice_points,
    is_2_convex_normal,
    is_idp,
    is_tuple_idp,
    lattice_points,
    level_status,
    minkowski_sum,
    point_set_sum,
    random_lattice_polytope,
    translate,
)

seeds = st.integers(0, 10**6)


def rand(seed, dim, bound=3):
    return random_lattice_polytope(seed, dim, dim, coord_bound=bound)


@settings(max_examples=12, deadline=None)
@given(seeds, st.integers(1, 3))
def test_low_dilates_are_idp(seed, d):
    P = rand(seed, d, bound=2)
    for n in (d - 1, d):
        assert is_idp(dilate(P, n)).verdict is Verdict.HOLDS


@settings(max_examples=12, deadline=None)
@given(seeds, st.integers(1, 2))
def test_dilate_past_dim_is_level_of_index_one(seed, d):
    rep = level_status(dilate(rand(seed, d), d + 1))
    assert rep.verdict is Verdict.VERIFIED_UP_TO_HORIZON
    assert rep.degrees_checked[0] == 1


@settings(max_examples=10, deadline=None)
@given(seeds, seeds)
def test_minkowski_of_2_convex_normal_pair_is_idp(s1, s2):
    Qs = [dilate(rand(s1, 2, bound=2), 2), dilate(rand(s2, 2, bound=2), 2)]
    for Q in Qs:
        assert is_2_convex_normal(Q).verdict is Verdict.HOLDS
    assert is_idp(minkowski_sum(Qs)).verdict is Verdict.HOLDS


@settings(max_examples=8, deadline=None)
@given(seeds, seeds)
def test_cayley_of_2_convex_normal_pair_idp_iff_tuple_idp(s1, s2):
    Qs = [dilate(rand(s1, 2, bound=2), 2), dilate(rand(s2, 2, bound=2), 2)]
    cayley_idp = is_idp(cayley_sum(Qs)).verdict is Verdict.HOLDS
    tuple_idp = all(
        is_tuple_idp([dilate(Qs[0], a), dilate(Qs[1], b)]).verdict is Verdict.HOLDS
        for a in range(3)
        for b in range(3)
        if a + b > 0
    )
    assert cayley_idp == tuple_idp


@settings(max_examples=10, deadline=None)
@given(seeds, st.integers(1, 2))
def test_interior_translate_cover_implies_level(seed, d):
    Q = dilate(rand(seed, d, bound=2), d + 1)
    assert interior_lattice_points(Q).points
    assert has_interior_translate_cover(Q).verdict is Verdict.HOLDS
    assert level_status(Q).verdict is Verdict.VERIFIED_UP_TO_HORIZON


@settings(max_examples=10, deadline=None)
@given(seeds, seeds)
def test_level_indices_of_sums_of_fattened_segments(s1, s2):
    Qs = [dilate(rand(s1, 1), 2), dilate(rand(s2, 1), 2)]
    for Q in Qs:
        assert has_interior_translate_cover(Q).verdict is Verdict.HOLDS
    mink = level_status(minkowski_sum(Qs))
    assert mink.verdict is Verdict.VERIFIED_UP_TO_HORIZON
    assert mink.degrees_checked[0] == 1
    cay = level_status(cayley_sum(Qs))
    assert cay.verdict is Verdict.VERIFIED_UP_TO_HORIZON
    assert cay.degrees_checked[0] == 2


@settings(max_examples=15, deadline=None)
@given(seeds, seeds)
def test_cayley_level_verified_forces_minkowski_level(s1, s2):
    # the converse fails: levelness of the Minkowski sum says nothing about
    # the Cayley sum, so only this direction is asserted
    Qs = [rand(s1, 1, bound=4), rand(s2, 1, bound=4)]
    cay = level_status(cayley_sum(Qs))
    if cay.verdict is Verdict.VERIFIED_UP_TO_HORIZON and cay.degrees_checked[0] == 2:
        mink = level_status(minkowski_sum(Qs))
        assert mink.verdict is Verdict.VERIFIED_UP_TO_HORIZON
        assert mink.degrees_checked[0] == 1


@settings(max_examples=12, deadline=None)
@given(seeds, st.integers(1, 3))
def test_dilate_lattice_points_contain_iterated_set_sums(seed, n):
    P = rand(seed, 2)
    pts = lattice_points(P)
    acc = pts
    for _ in range(n - 1):
        acc = point_set_sum(acc, pts)
    assert set(acc.points) <= set(lattice_points(dilate(P, n)).points)


@settings(max_examples=10, deadline=None)
@given(seeds, st.integers(1, 2))
def test_covering_deciders_are_translation_invariant(seed, d):
    P = rand(seed, d, bound=2)
    moved = translate(P, (5, -7, 3)[:d])
    assert is_2_convex_normal(P).verdict is is_2_convex_normal(moved).verdict
    assert (
        has_interior_translate_cover(P).verdict
        == has_interior_translate_cover(moved).verdict
    )
