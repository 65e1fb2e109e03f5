"""Covering deciders: translate covers in closed and relative-interior mode.

``covers_by_sampling`` is the reference oracle: it classifies one sample per
cell of the arrangement of every translate's facet and equality hyperplanes,
taken from ``translate`` itself, an approach independent of the row table and
the subtraction route that ``covers`` takes.  It cuts the target by
``convex_hull`` and reads faces off the hulls' facets, so it runs neither the
pieces' incidence masks nor their edge test.

``reference_subtraction`` is the subtraction kernel as it was in ``Fraction``
arithmetic, with sorted rational piece vertices and a linear first-fit scan
of the translates; the integer kernel must return the very same witness.
"""

import math
import operator
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

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
    dilate,
    from_vertices,
    has_interior_translate_cover,
    interior_lattice_points,
    is_2_convex_normal,
    lattice_points,
    random_lattice_polytope,
    translate,
)
from latcayley import covering
from latcayley.covering import (
    _classify_translates,
    _cut_piece,
    _decide_by_subtraction,
    _Piece,
    _subtract_branches,
)
from latcayley.geometry import (
    CELL_BUDGET_ENV,
    DualDescription,
    Mode,
    Vec,
    _piece_edges,
    _tight_masks,
    cell_budget,
    contains,
    convex_hull,
    dot,
    norm_scalar,
    vec_sub,
)

from conftest import Plane, barycenter, hyperplane_through, rank, run_optimized


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
# reference oracle: one sample per arrangement cell


def _faces(desc: DualDescription) -> list[frozenset[int]]:
    """All nonempty faces of a polytope as vertex-index sets (the polytope
    included): the nonempty intersections of its facets' vertex sets."""
    facets = [
        frozenset(i for i, v in enumerate(desc.vertices) if dot(normal, v) == c)
        for normal, c in desc.facets
    ]
    top = frozenset(range(len(desc.vertices)))
    seen = {top}
    queue = [top]
    while queue:
        face = queue.pop()
        for facet in facets:
            child = face & facet
            if child and child not in seen:
                seen.add(child)
                queue.append(child)
    return list(seen)


def _split(desc: DualDescription, h: Plane) -> list[DualDescription]:
    """The parts of a polytope on the two sides of a hyperplane it crosses,
    each the hull of the vertices on that side and the crossing point of every
    pair of vertices strictly on opposite sides; the polytope itself when the
    hyperplane does not cross it."""
    vals = [dot(h.normal, v) - h.offset for v in desc.vertices]
    if all(a >= 0 for a in vals) or all(a <= 0 for a in vals):
        return [desc]
    crossings = [
        tuple(x + Fraction(a, a - b) * (y - x) for x, y in zip(p, q))
        for (p, a), (q, b) in combinations(zip(desc.vertices, vals), 2)
        if a * b < 0
    ]
    return [
        convex_hull([v for v, a in zip(desc.vertices, vals) if side(a)] + crossings)
        for side in (lambda a: a <= 0, lambda a: a >= 0)
    ]


def arrangement_sample_points(hyperplanes, within: DualDescription) -> list[Vec]:
    """One exact rational sample in the relative interior of every cell.

    The cells are those of the arrangement of ``hyperplanes`` restricted to the
    bounded polytope ``within``, refined by the faces of ``within`` itself.  The
    polytope is subdivided into full-dimensional pieces; each cell of any
    dimension is the relative interior of exactly one face of some piece, and
    the vertex barycenter of that face is its sample.  Samples are deduplicated
    (a sample lies in its own cell, so equal samples mean equal cells) and
    returned lexicographically sorted.

    Raises CellBudgetExceeded when the subdivision outgrows the configured
    budget (LATCAYLEY_CELL_BUDGET, default 10**6 cells).
    """
    if not within.vertices:
        raise GeometryError("within must be a bounded nonempty polytope")
    planes: dict[Plane, None] = {}
    for h in hyperplanes:
        if len(h.normal) != within.ambient_dim:
            raise DimensionMismatch("hyperplane ambient dimension disagrees with within")
        planes[h] = None
    budget = cell_budget()
    pieces = [within]
    for h in planes:
        nxt: list[DualDescription] = []
        for piece in pieces:
            nxt += _split(piece, h)
            if len(nxt) > budget:
                raise CellBudgetExceeded(
                    f"arrangement subdivision exceeded {budget} pieces; "
                    f"raise {CELL_BUDGET_ENV} to allow more"
                )
        pieces = nxt
    samples: dict[Vec, None] = {}
    seen_cells = 0
    for piece in pieces:
        for face in _faces(piece):
            seen_cells += 1
            if seen_cells > budget:
                raise CellBudgetExceeded(
                    f"arrangement produced more than {budget} candidate cells; "
                    f"raise {CELL_BUDGET_ENV} to allow more"
                )
            samples[barycenter([piece.vertices[i] for i in face])] = None
    return sorted(samples)


def covers_by_sampling(q: CoverageQuery) -> PropertyReport:
    """Arrangement-cell sampling decider (cross-check route).

    Every facet and equality hyperplane of every translate, built by
    ``translate`` and not by the decider's row table, is thrown into an
    arrangement restricted to the target; one sample per cell decides
    coverage, because membership in any translate, open or closed, is
    constant on each cell, and so is membership in the target region.  A
    hyperplane constant on the target leaves the cells as they are.  Refuses
    up front when the worst-case cell count exceeds the configured budget.
    """
    target = q.target.desc
    planes: dict[Plane, None] = {}
    for t in q.translations:
        desc = translate(q.translate_base, t).desc
        for normal, c in desc.facets:
            planes[hyperplane_through(normal, c)] = None
        planes.update(dict.fromkeys(Plane(*e) for e in desc.equalities))
    budget = cell_budget()
    k = len(planes) + len(target.facets)
    est = sum(math.comb(k, i) for i in range(min(target.dim, k) + 1))
    if est > budget:
        raise CellBudgetExceeded(
            f"arrangement of {k} hyperplanes admits up to {est} cells, over the "
            f"budget of {budget}; raise {CELL_BUDGET_ENV} to allow more"
        )
    samples = arrangement_sample_points(planes, target)
    base = q.translate_base.desc
    shifts = sorted(q.translations)
    uncovered = [
        s
        for s in samples
        if contains(target, s, q.mode)
        and not any(contains(base, vec_sub(s, t), q.mode) for t in shifts)
    ]
    w = min(uncovered) if uncovered else None
    return PropertyReport("covers", Verdict.HOLDS if w is None else Verdict.FAILS, w)


# ---------------------------------------------------------------------------
# reference kernel: the subtraction in Fraction arithmetic, scanning translates


def _reference_cut(piece, normal, offset):
    verts, masks = piece
    vals = [norm_scalar(dot(normal, v) - offset) for v in verts]
    if all(v >= 0 for v in vals):
        return None, piece
    if all(v <= 0 for v in vals):
        return piece, None
    cut = 1 << reduce(operator.or_, masks).bit_length()
    kept = [(v, m | cut if s == 0 else m, s) for v, m, s in zip(verts, masks, vals)]
    crossings = []
    for i, j in _piece_edges(verts, masks):
        vi, vj = vals[i], vals[j]
        if (vi > 0 > vj) or (vi < 0 < vj):
            x = tuple(norm_scalar(Fraction(vi * b - vj * a, vi - vj)) for a, b in zip(verts[i], verts[j]))
            crossings.append((x, masks[i] & masks[j] | cut))
    neg = sorted([(v, m) for v, m, s in kept if s <= 0] + crossings)
    pos = sorted([(v, m) for v, m, s in kept if s >= 0] + crossings)
    return tuple(zip(*neg)), tuple(zip(*pos))


def _reference_branches(piece, normals, offs, mode):
    branches = []
    rest = piece
    for normal, c in zip(normals, offs):
        if rest is None:
            break
        rest, outside = _reference_cut(rest, normal, c)
        if outside is None and mode is Mode.RELATIVE_INTERIOR:
            on = [(v, m) for v, m in zip(*rest) if dot(normal, v) == c]
            outside = tuple(zip(*on)) if on else None
        if outside is not None:
            branches.append(outside)
    return branches


def translate_offsets(q: CoverageQuery):
    """The column table of q as its normals and, per live translate in
    sorted-shift order, the tuple of its offsets over them."""
    normals, table, live = _classify_translates(q)
    return normals, [tuple(col[i] for col in table) for i in range(live)]


def reference_subtraction(q: CoverageQuery) -> Vec | None:
    """The first uncovered piece barycenter in depth-first order, or None."""
    target = q.target.desc
    normals, offsets = translate_offsets(q)
    accepts = operator.le if q.mode is Mode.CLOSED else operator.lt
    start = (target.vertices, tuple(_tight_masks(target.vertices, target.facets)))
    stack = [(start, tuple(range(len(offsets))))]
    while stack:
        piece, remaining = stack.pop()
        b = barycenter(piece[0])
        if q.mode is Mode.RELATIVE_INTERIOR and any(dot(u, b) == c for u, c in target.facets):
            continue
        vals = [dot(u, b) for u in normals]
        pick = next((i for i in remaining if all(map(accepts, vals, offsets[i]))), None)
        if pick is None:
            return b
        rem = tuple(i for i in remaining if i != pick)
        for branch in reversed(_reference_branches(piece, normals, offsets[pick], q.mode)):
            stack.append((branch, rem))
    return None


def test_arrangement_samples_hit_every_membership_pattern():
    # one vertical plane splitting a square: expect samples on both sides
    # and on the plane itself
    box = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    plane = Plane(normal=(1, 0), offset=1)
    samples = arrangement_sample_points([plane], box)
    signs = {
        (dot(plane.normal, s) > plane.offset) - (dot(plane.normal, s) < plane.offset)
        for s in samples
    }
    assert signs == {-1, 0, 1}
    for s in samples:
        assert contains(box, s)


def test_arrangement_samples_within_lower_dimensional_region():
    seg = convex_hull([(0, 0), (4, 0)])
    plane = Plane(normal=(1, 0), offset=2)
    samples = arrangement_sample_points([plane], seg)
    assert any(dot(plane.normal, s) < 2 for s in samples)
    assert any(dot(plane.normal, s) == 2 for s in samples)
    assert any(dot(plane.normal, s) > 2 for s in samples)


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


def test_witness_recheck_survives_optimized_mode():
    # with membership broken, the re-check of a barycenter witness must still
    # raise when ``python -O`` strips asserts
    proc = run_optimized(
        "from latcayley import covering, from_vertices\n"
        "covering.contains = lambda *a, **k: True\n"
        "covering.is_2_convex_normal(from_vertices([(0, 0), (1, 0), (0, 1)]))\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: witness (Fraction(2, 3), Fraction(2, 3)) is covered by translate (0, 0)" in proc.stderr


def test_interior_sample_check_survives_optimized_mode():
    # with 2P read as P, the integer test of each translated barycenter must
    # still raise when ``python -O`` strips asserts
    proc = run_optimized(
        "from latcayley import covering, from_vertices\n"
        "covering.dilate = lambda P, factor: P\n"
        "covering.has_interior_translate_cover(from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)]))\n"
    )
    assert proc.returncode != 0
    assert "AssertionError: interior translate escaped relint(2P)" in proc.stderr


@pytest.mark.parametrize(
    "vertices, stand_in",
    [
        # [0, 2], barycenter 1: the row 0..3 puts the sample 1 + 3 on the facet
        # x <= 4 of 2P (last coefficient +1) at hi, the row -1..2 puts 1 - 1 on
        # the facet -x <= 0 (last coefficient -1) at lo; neither is interior
        (((0,), (2,)), [(0,), (1,), (2,), (3,)]),
        (((0,), (2,)), [(-1,), (0,), (1,), (2,)]),
        # a segment on the line x_1 = 0: a row that leaves the line at hi, at lo,
        # and one off the line x_0 = 0, whose normal has last coefficient 0
        (((0, 0), (1, 0)), [(0, 0), (0, 1)]),
        (((0, 0), (1, 0)), [(1, -1), (1, 0)]),
        (((0, 0), (0, 1)), [(1, 0), (1, 1)]),
    ],
)
def test_interior_sample_check_reads_both_row_ends(monkeypatch, vertices, stand_in):
    # with the lattice points of P replaced by one stand-in row that leaves
    # P at a single end, the sample of that end's translate escapes
    # relint(2P), and the row-end check must see it
    base = from_vertices(vertices)
    has_interior_translate_cover(base)  # the real lattice points stay inside
    monkeypatch.setattr(covering, "lattice_points", lambda _: PointSet(len(vertices[0]), stand_in))
    with pytest.raises(AssertionError, match=r"interior translate escaped relint\(2P\)"):
        has_interior_translate_cover(base)


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
    # the query's hulls and enumerations are built under the default budget
    q = query(dilate(unit_square, 2), unit_square, lattice_points(unit_square).points)
    monkeypatch.setenv(CELL_BUDGET_ENV, "3")
    with pytest.raises(CellBudgetExceeded, match="arrangement"):
        covers_by_sampling(q)


def test_subtraction_refuses_on_tiny_budget(monkeypatch):
    # interior pre-pass cannot settle a covered closed query, so the
    # subtraction engine runs and must respect the budget; the hulls and the
    # enumerations it reads are built under the default budget first
    sq = P((0, 0), (1, 0), (0, 1), (1, 1))
    q = query(dilate(sq, 2), sq, lattice_points(sq).points)
    lattice_points(q.target)
    monkeypatch.setenv(CELL_BUDGET_ENV, "1")
    with pytest.raises(CellBudgetExceeded, match="covering subtraction"):
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


def _reference_query(seed: int, mode) -> CoverageQuery:
    """A seeded query for the reference comparison: a thin base in closed mode
    only, and a dilate of the base or a random target of any dimension."""
    rng = random.Random(seed)
    ambient = rng.randint(1, 3)
    bound = 2 if ambient < 3 else 1
    # relative-interior mode refuses a base thinner than the target, so only
    # closed mode gets thin bases
    thin = mode is Mode.CLOSED and ambient > 1 and rng.random() < 0.4
    bdim = rng.randint(1, ambient - 1) if thin else ambient
    base = random_lattice_polytope(rng.randrange(2**30), ambient, bdim, coord_bound=bound)
    if rng.random() < 0.5:
        k = rng.randint(2, 3)
        target, pool = dilate(base, k), list(lattice_points(dilate(base, k - 1)).points)
    else:
        target = random_lattice_polytope(rng.randrange(2**30), ambient, rng.randint(0, ambient), coord_bound=bound)
        pool = sorted({vec_sub(x, b) for x in lattice_points(target) for b in lattice_points(base)})
    shifts = rng.sample(pool, rng.randint(1, len(pool)))
    return query(target, base, shifts, mode)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([Mode.CLOSED, Mode.RELATIVE_INTERIOR]))
def test_subtraction_matches_the_reference_kernel(seed, mode):
    """The integer kernel with its bitset pick returns the reference kernel's
    witness, or None with it, whether or not a lattice witness exists."""
    q = _reference_query(seed, mode)
    assert _decide_by_subtraction(q) == reference_subtraction(q), q


def test_subtraction_matches_the_reference_kernel_on_fixed_seeds():
    # the same comparison on every seed below 200 in both modes, so that a
    # wrong whole-piece skip (the vertex minimum for the maximum, closed
    # rounding in the open mode, or the top face taken as boundary without a
    # shared target facet) fails on every run, not only on a lucky draw
    for seed in range(200):
        for mode in (Mode.CLOSED, Mode.RELATIVE_INTERIOR):
            q = _reference_query(seed, mode)
            assert _decide_by_subtraction(q) == reference_subtraction(q), (seed, q)


# the digest's 4-polytope; its dilates 3P4 and 4P4 take this many carves per
# decider
P4 = ((-1, 0, -1, 1), (-1, 0, 0, 1), (0, 1, -1, 0), (1, -1, 0, -1), (1, 0, 0, -1), (1, 0, 1, -1), (1, 1, -1, 0))
P4_DILATE_PICKS = {3: {"2cn": 246, "cond01": 760}, 4: {"2cn": 246, "cond01": 605}}


@pytest.fixture
def picks(monkeypatch):
    """The arguments of every carve the subtraction makes, in order."""
    made = []

    def counting(*args):
        made.append(args)
        return _subtract_branches(*args)

    monkeypatch.setattr(covering, "_subtract_branches", counting)
    return made


def test_whole_piece_skip_pins_the_pick_count(picks):
    # every piece that one remaining translate already holds is skipped, not
    # carved, and each carve prefers a translate that also holds the piece's
    # vertices; on 3P4 a skip that never fires carves 583 and 2,241 times
    for factor, counts in P4_DILATE_PICKS.items():
        for decide in (is_2_convex_normal, has_interior_translate_cover):
            picks.clear()
            report = decide(dilate(P(*P4), factor))
            assert report.verdict is Verdict.HOLDS
            assert len(picks) == counts[report.property]


# a seeded 5-simplex dilated 4x: 5-D covering at a size that runs in seconds
P5_QUADRUPLE_PICKS = {"2cn": 1048, "cond01": 5331}


def test_five_dimensional_dilate_pins_the_pick_count(picks):
    quadruple = dilate(random_lattice_polytope(3, 5, 5, 1, 6), 4)
    for decide in (is_2_convex_normal, has_interior_translate_cover):
        picks.clear()
        report = decide(quadruple)
        assert report.verdict is Verdict.HOLDS
        assert len(picks) == P5_QUADRUPLE_PICKS[report.property]


@pytest.mark.parametrize("seed, mode", [(37, Mode.CLOSED), (50, Mode.RELATIVE_INTERIOR)])
def test_failing_query_resumes_in_canonical_order(picks, seed, mode):
    """A failing query without a lattice witness whose first carve, on the
    target itself, takes a fuller translate than the lowest one holding the
    target's barycenter: the search resumes from there in the canonical
    order and reports the reference kernel's witness."""
    q = _reference_query(seed, mode)
    assert covering._lattice_witness(q) is None
    normals, offsets = translate_offsets(q)
    accepts = operator.le if mode is Mode.CLOSED else operator.lt
    vals = [dot(u, barycenter(q.target.desc.vertices)) for u in normals]
    lowest = next(offs for offs in offsets if all(map(accepts, vals, offs)))
    report = covers(q)
    assert report.verdict is Verdict.FAILS
    assert report.witness == reference_subtraction(q)
    start = picks[0][0]
    assert picks[0][1] != lowest
    assert (start, lowest, mode) in picks[1:]


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
    q = query(dilate(reeve, 2), reeve, lattice_points(reeve).points)
    assert covers_by_sampling(q).verdict is Verdict.FAILS
    planes = []
    shifted = [translate(q.translate_base, t) for t in q.translations.points]
    for S in shifted:
        for normal, offset in S.desc.facets:
            planes.append((normal, offset))
    for normal, offset in q.target.desc.facets:
        planes.append((normal, offset))
    unique = list({hyperplane_through(n, c) for n, c in planes})
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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_cut_parts_keep_the_piece_dimension(seed, dim):
    """Why closed-mode subtraction needs no dimension test: a cut returns the
    piece whole or splits it into two parts of its own dimension.  Every part,
    and every relative-interior slice, holds its own hull's vertices, each as
    a canonical extended vector whose row columns are its values on the rows,
    and carries the incidence masks that hull gives, up to bits that do not
    change the edge test."""
    def rational(piece):
        return [tuple(norm_scalar(Fraction(x, v[-1])) for x in v[K:-1]) for v in piece.vertices]

    def piece_dim(piece):
        verts = rational(piece)
        return rank([vec_sub(v, verts[0]) for v in verts])

    def assert_masks_exact(piece):
        assert all(v[-1] > 0 and math.gcd(*v) == 1 for v in piece.vertices)
        assert all(list(v[:K]) == [dot(u, v[K:-1]) for u in rows] for v in piece.vertices)
        verts = rational(piece)
        hull = convex_hull(verts)
        assert hull.vertices == tuple(sorted(verts))
        edges = _piece_edges(verts, _tight_masks(verts, hull.facets))
        assert _piece_edges(piece.vertices, piece.masks) == edges
        # the popcount pre-filter at the piece's true dimension drops no edge
        assert piece.dim in (0, piece_dim(piece))
        assert _piece_edges(piece.vertices, piece.masks, need=piece_dim(piece) - 1) == edges

    def random_cut(piece, rows=None):
        # a row and the floor of one vertex's value on it, moved by -1, 0 or
        # 1; 0 cuts through the vertex when that value is an integer
        k = rng.choice(rows or range(K))
        V = rng.choice(piece.vertices)
        return k, V[k] // V[-1] + rng.randint(-1, 1)

    rng = random.Random(seed)
    ambient = rng.randint(dim, 3)
    P_ = random_lattice_polytope(seed, ambient, dim, coord_bound=2)
    # the rows: the target's facet normals and random normals, then their
    # negatives, so that every facet of a part lies on the <= side of a row
    rows = [u for u, _ in P_.desc.facets] + [tuple(rng.randint(-2, 2) for _ in range(ambient)) for _ in range(3)]
    rows += [tuple(-x for x in u) for u in rows]
    K = len(rows)
    verts = P_.desc.vertices
    pieces = [_Piece(
        tuple((*(dot(u, v) for u in rows), *v, 1) for v in verts), tuple(_tight_masks(verts, P_.desc.facets)), dim
    )]
    for _ in range(4):
        piece = pieces.pop(rng.randrange(len(pieces)))
        parts = [p for p in _cut_piece(piece, *random_cut(piece))[:2] if p is not None]
        assert all(piece_dim(p) == piece_dim(piece) == dim for p in parts)
        for part in parts:
            assert_masks_exact(part)
        pieces += parts
    # relative-interior carving: a row flush against the piece yields the
    # face it touches as a slice, and a random row cuts the rest; every other
    # row's offset lies above the piece
    piece = rng.choice(pieces)
    tops = [max(Fraction(V[k], V[-1]) for V in piece.vertices) for k in range(K)]
    flush = rng.choice([k for k, top in enumerate(tops) if top.denominator == 1])
    offs = [math.floor(top) + 1 for top in tops]
    offs[flush] = int(tops[flush])
    k, off = random_cut(piece, [k for k in range(K) if k != flush])
    offs[k] = off
    for part in _subtract_branches(piece, tuple(offs), Mode.RELATIVE_INTERIOR):
        assert_masks_exact(part)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_edge_pre_filter_drops_no_hull_edge(seed, dim):
    """Two vertices of a dim-polytope with fewer than dim - 1 common facets
    span no edge, so the popcount pre-filter changes no edge list."""
    rng = random.Random(seed)
    ambient = rng.randint(dim, 5)
    P_ = random_lattice_polytope(seed, ambient, dim, coord_bound=1 if dim > 3 else 2)
    verts = P_.desc.vertices
    masks = _tight_masks(verts, P_.desc.facets)
    assert _piece_edges(verts, masks, need=dim - 1) == _piece_edges(verts, masks)


def _assert_table_matches_membership(q: CoverageQuery):
    """On rational points x of the target (lattice points and barycenters of
    vertex subsets), the offset rows accepting the row values of x are as
    many as the translates containing x by direct membership."""
    normals, offsets = translate_offsets(q)
    accepts = operator.le if q.mode is Mode.CLOSED else operator.lt
    verts = q.target.desc.vertices
    rng = random.Random(len(verts))
    points = list(lattice_points(q.target).points)
    points += [barycenter(rng.sample(verts, rng.randint(1, len(verts)))) for _ in range(10)]
    base = q.translate_base.desc
    for x in points:
        vals = [dot(u, x) for u in normals]
        by_table = sum(all(map(accepts, vals, offs)) for offs in offsets)
        by_membership = sum(contains(base, vec_sub(x, t), q.mode) for t in q.translations)
        assert by_table == by_membership, (q, x)


def test_table_matches_membership_on_thin_cases(unit_square):
    # a segment base is cut by its varying equality, so the table leads with
    # that equality's opposite pair of rows
    q = query(dilate(unit_square, 2), P((0, 0), (1, 0)), lattice_points(unit_square).points)
    normals, _ = translate_offsets(q)
    assert normals[0] == tuple(-x for x in normals[1])
    _assert_table_matches_membership(q)
    # squares flush against a segment target from above and from below: the
    # closed ones meet it at (3/2, 0), the open ones miss it
    for mode in Mode:
        _assert_table_matches_membership(
            query(P((0, 0), (3, 0)), unit_square, [(1, 0), (1, -1)], mode)
        )
    # a segment base whose equality is constant on a segment target: the
    # shift off that line is dropped, the other three keep a row each
    for mode, verdict in ((Mode.CLOSED, Verdict.HOLDS), (Mode.RELATIVE_INTERIOR, Verdict.FAILS)):
        q = query(P((0, 0), (3, 0)), P((0, 0), (1, 0)), [(0, 1), (0, 0), (1, 0), (2, 0)], mode)
        assert len(translate_offsets(q)[1]) == 3
        _assert_table_matches_membership(q)
        assert covers(q).verdict is verdict


def test_table_matches_membership_along_translation_rows(unit_square):
    # a column runs along each translation row (p, lo..hi) as a progression
    # of step u's last entry; the triangle's rows have last entries 0, -1 and
    # +1, and the shifts make gapped rows with single points in Z^2
    triangle = P((0, 0), (2, 0), (0, 2))
    normals, _ = translate_offsets(query(dilate(triangle, 2), triangle, [(0, 0)]))
    assert sorted(u[-1] for u in normals) == [-1, 0, 1]
    shifts = [(0, -1), (0, 0), (0, 1), (0, 3), (1, 2), (2, -2), (2, -1)]
    for mode in Mode:
        _assert_table_matches_membership(query(dilate(triangle, 2), triangle, shifts, mode))
    # the rows x_1 >= 0 and x_1 <= 2 of [0, 2]^2 are constant on a segment on
    # the x_0-axis and cut each row (a, -3..2) inside: closed mode keeps
    # x_1 in -2..0, open mode only -1
    shifts = [(a, b) for a in (-1, 1) for b in range(-3, 3)]
    for mode, live in ((Mode.CLOSED, 6), (Mode.RELATIVE_INTERIOR, 2)):
        q = query(P((0, 0), (4, 0)), dilate(unit_square, 2), shifts, mode)
        assert len(translate_offsets(q)[1]) == live
        _assert_table_matches_membership(q)
    # Z^1: gapped rows against a segment, and a point target on which every
    # row is constant, so the table has no column and only a live count
    for mode, live in ((Mode.CLOSED, 3), (Mode.RELATIVE_INTERIOR, 1)):
        gapped = [(-1,), (0,), (1,), (3,), (5,), (6,)]
        _assert_table_matches_membership(query(P((0,), (6,)), P((0,), (2,)), gapped, mode))
        q = query(P((3,)), P((0,), (2,)), [(x,) for x in range(6)], mode)
        assert translate_offsets(q) == ((), [()] * live)
        _assert_table_matches_membership(q)
    # Z^4: 3P4 by translates of P4 over all, or a gapped subset, of the
    # lattice points of 2P4, whose rows reach past single points
    base = P(*P4)
    pool = lattice_points(dilate(base, 2))
    assert any(lo < hi for _, lo, hi in pool.rows)
    for mode in Mode:
        for shifts in (pool.points, pool.points[::3]):
            _assert_table_matches_membership(query(dilate(base, 3), base, shifts, mode))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([Mode.CLOSED, Mode.RELATIVE_INTERIOR]))
def test_table_matches_membership(seed, mode):
    rng = random.Random(seed)
    ambient = rng.randint(1, 3)
    tdim = rng.randint(1, ambient)
    # relative-interior mode refuses a base thinner than the target, so there
    # the base's coordinate subspace contains the target's
    bdim = rng.randint(tdim if mode is Mode.RELATIVE_INTERIOR else 1, ambient)
    target = random_lattice_polytope(rng.randrange(2**30), ambient, tdim, coord_bound=2)
    base = random_lattice_polytope(rng.randrange(2**30), ambient, bdim, coord_bound=2)
    # shifts that bring a lattice point of the base onto one of the target
    pool = sorted({vec_sub(x, b) for x in lattice_points(target) for b in lattice_points(base)})
    shifts = rng.sample(pool, rng.randint(1, min(8, len(pool))))
    _assert_table_matches_membership(query(target, base, shifts, mode))
