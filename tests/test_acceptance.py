"""End-to-end acceptance gate.

Nine checks, run in order; each prints one verdict line of the form
``criterion N: PASS (...)`` or ``criterion N: FAIL (...)`` directly to the
terminal.  A FAIL line reports an expectation the toolkit refutes; the
assertions below it pin the independently verified behavior, so a FAIL line
with a passing test means the expectation, not the code, is wrong.
"""

import math
import time

from latcayley import (
    CampaignConfig,
    CoverageQuery,
    Mode,
    PointSet,
    Verdict,
    cayley_sum,
    contains,
    covers,
    dilate,
    from_vertices,
    has_interior_translate_cover,
    interior_lattice_points,
    is_2_convex_normal,
    is_idp,
    is_tuple_idp,
    lattice_points,
    level_index,
    level_status,
    minkowski_sum,
    point_set_sum,
    random_lattice_polytope,
    translate,
    verify_theorem,
)
from latcayley.geometry import norm_scalar

from conftest import all_fixture_names, barycenter, load_fixture


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def run_campaign(theorem_id, trials, **overrides):
    cfg = CampaignConfig(theorem_id, trials=trials, seed=0, **overrides)
    t0 = time.perf_counter()
    rep = verify_theorem(cfg)
    return rep, time.perf_counter() - t0


def test_criterion_1_segment_pair_idp_split(capsys):
    P1 = from_vertices([(0, 0), (1, 2)])
    P2 = from_vertices([(0, 0), (1, 0)])
    worst = 0.0
    for n1, n2 in [(1, 1), (1, 2), (2, 1), (2, 3)]:
        t0 = time.perf_counter()
        A, B = dilate(P1, n1), dilate(P2, n2)
        joint = set(lattice_points(minkowski_sum([A, B])).points)
        split = set(point_set_sum(lattice_points(A), lattice_points(B)).points)
        assert (1, 1) in joint
        assert (1, 1) not in split
        assert is_tuple_idp([A, B]).verdict is Verdict.FAILS
        assert is_idp(cayley_sum([A, B])).verdict is Verdict.FAILS
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert elapsed < 1.0
    announce(capsys, 1, True, f"4/4 dilation pairs split at (1,1), max {worst:.2f}s per pair")


def test_criterion_2_level_of_sums_family(capsys):
    failing = {}
    level_members = []
    worst = 0.0
    for h, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        t0 = time.perf_counter()
        P1 = from_vertices([(1, 0), (0, 1)])
        P2 = from_vertices([(1, 1), (-h, -n * h)])
        mink = level_status(minkowski_sum([P1, P2]))
        assert mink.verdict is Verdict.VERIFIED_UP_TO_HORIZON
        assert mink.degrees_checked[0] == 1
        C = cayley_sum([P1, P2])
        cay = level_status(C)
        if cay.verdict is Verdict.FAILS:
            degree, point = cay.witness
            # independent re-check: the witness is an interior lattice point
            # of the dilate that no generator-plus-lattice-point sum reaches
            data = level_index(C)
            assert contains(dilate(C, degree).desc, point, Mode.RELATIVE_INTERIOR)
            reachable = point_set_sum(
                data.interior_generators,
                lattice_points(dilate(C, degree - data.index_r)),
            )
            assert tuple(point) not in set(reachable.points)
            failing[(h, n)] = (degree, tuple(point))
        else:
            assert cay.verdict is Verdict.VERIFIED_UP_TO_HORIZON
            level_members.append((h, n))
        worst = max(worst, time.perf_counter() - t0)
        assert worst < 30.0
    assert failing == {(1, 1): (3, (2, 1, 1, 1)), (2, 1): (3, (2, 1, 0, 0))}
    assert level_members == [(1, 2), (2, 2)]
    # the second segment has lattice length gcd(1+h, 1+nh); exactly the
    # non-primitive members break levelness of the Cayley sum
    for (h, n) in failing:
        assert math.gcd(1 + h, 1 + n * h) >= 2
    for (h, n) in level_members:
        assert math.gcd(1 + h, 1 + n * h) == 1
    announce(
        capsys,
        2,
        False,
        "expected all 4 Cayley sums to fail levelness, but (1,2) and (2,2) "
        "verify as level; only members whose second segment has lattice "
        f"length >= 2 fail, max {worst:.2f}s per member",
    )


def test_criterion_3_nonnormal_simplex_dilation_ladder(capsys):
    t0 = time.perf_counter()
    R = from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert lattice_points(R).points == R.vertices
    assert len(R.vertices) == 4
    idp = is_idp(R)
    assert idp.verdict is Verdict.FAILS
    assert idp.witness == (2, (1, 1, 1))
    cover = is_2_convex_normal(R)
    assert cover.verdict is Verdict.FAILS
    assert cover.witness == (1, 1, 1)
    assert is_idp(dilate(R, 2)).verdict is Verdict.HOLDS
    assert is_2_convex_normal(dilate(R, 3)).verdict is Verdict.HOLDS
    four = dilate(R, 4)
    assert has_interior_translate_cover(four).verdict is Verdict.HOLDS
    assert level_index(four).index_r == 1
    announce(capsys, 3, True, f"simplex fails, dilates 2/3/4 recover, {time.perf_counter() - t0:.2f}s")


def test_criterion_4_slice_equality_campaigns(capsys):
    rep1, t1 = run_campaign("lemma_1_1", 100, dim_max=2, dilation_bound=4)
    rep2, t2 = run_campaign("lemma_1_2", 100, dim_max=2, dilation_bound=4)
    assert rep1.ok and rep1.trials_run == 100
    assert rep2.ok and rep2.trials_run == 100
    assert t1 + t2 < 300.0
    announce(capsys, 4, True, f"200/200 slice equalities, {t1 + t2:.1f}s")


def test_criterion_5_cayley_tuple_idp_equivalence_campaign(capsys):
    rep, t = run_campaign("thm_0_4_equiv", 25, dim_max=2, coord_bound=3, dilation_bound=2)
    assert rep.ok and rep.trials_run == 25
    announce(capsys, 5, True, f"25/25 equivalences, {t:.1f}s")


def test_criterion_6_convex_normal_sum_campaigns(capsys):
    rep1, t1 = run_campaign("thm_2_1", 25, dim_max=2, coord_bound=3)
    rep2, t2 = run_campaign("cor_2_3", 25, dim_max=2, coord_bound=3)
    assert rep1.ok and rep1.trials_run == 25
    assert rep2.ok and rep2.trials_run == 25
    announce(capsys, 6, True, f"50/50 agreements, {t1 + t2:.1f}s")


def test_criterion_7_level_index_campaigns(capsys):
    rep1, t1 = run_campaign("prop_3_1", 25, dim_max=2, coord_bound=3)
    rep2, t2 = run_campaign("thm_3_2", 25, dim_max=2, coord_bound=3)
    rep3, t3 = run_campaign("cor_3_4", 25, dim_max=2, coord_bound=3)
    for rep in (rep1, rep2, rep3):
        assert rep.ok and rep.trials_run == 25
    announce(capsys, 7, True, f"75/75 level indices verified, {t1 + t2 + t3:.1f}s")


def test_criterion_8_gorenstein_equivalence_campaign(capsys):
    rep, t = run_campaign("bn_gorenstein", 25, dim_max=2, coord_bound=3)
    assert rep.ok and rep.trials_run == 25
    announce(capsys, 8, True, f"25/25 agreements, {t:.1f}s")


def suite_checks(P):
    n = P.ambient_dim
    shift = (3, -2, 5, 1)[:n]

    # hull round-trips
    assert from_vertices(P.vertices) == P
    assert from_vertices(lattice_points(P).points) == P

    # translation invariance
    moved = translate(P, shift)
    assert len(lattice_points(moved).points) == len(lattice_points(P).points)
    idp, idp_moved = is_idp(P), is_idp(moved)
    assert idp.verdict == idp_moved.verdict

    # witness re-verification
    if idp.verdict is Verdict.FAILS:
        degree, point = idp.witness
        assert tuple(point) in set(lattice_points(dilate(P, degree)).points)
        reachable = point_set_sum(
            lattice_points(dilate(P, degree - 1)), lattice_points(P)
        )
        assert tuple(point) not in set(reachable.points)

    # covering monotonicity and witness soundness
    pts = lattice_points(P)
    two = dilate(P, 2)
    full = covers(CoverageQuery(two, P, pts, Mode.CLOSED))
    if len(pts.points) > 1:
        half = PointSet(n, pts.points[: len(pts.points) // 2])
        partial = covers(CoverageQuery(two, P, half, Mode.CLOSED))
        assert not (partial.verdict is Verdict.HOLDS and full.verdict is Verdict.FAILS)
    if full.verdict is Verdict.FAILS:
        w = full.witness
        assert contains(two.desc, w, Mode.CLOSED)
        for t in pts.points:
            shifted = tuple(norm_scalar(x - y) for x, y in zip(w, t))
            assert not contains(P.desc, shifted, Mode.CLOSED)

    # relative interior membership implies closed membership
    for Q in (P, two):
        center = barycenter(Q.desc.vertices)
        assert contains(Q.desc, center, Mode.RELATIVE_INTERIOR)
        assert contains(Q.desc, center, Mode.CLOSED)
    assert set(interior_lattice_points(P).points) <= set(pts.points)

    # point-set sums: identity and commutativity
    zero = PointSet(n, ((0,) * n,))
    assert point_set_sum(pts, zero) == pts
    other = lattice_points(moved)
    assert set(point_set_sum(pts, other).points) == set(point_set_sum(other, pts).points)


def test_criterion_9_property_suite(capsys):
    t0 = time.perf_counter()
    count = 0
    for name in all_fixture_names():
        suite_checks(load_fixture(name))
        count += 1
    for seed in range(200):
        dim = 1 + seed % 3
        suite_checks(random_lattice_polytope(seed, dim, dim, coord_bound=2))
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    announce(capsys, 9, True, f"{count} polytopes through 6 checks, {elapsed:.1f}s")
