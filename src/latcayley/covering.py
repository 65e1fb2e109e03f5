"""Exact decider for covering a target polytope by lattice translates of a base.

``covers`` subtracts translates from the target recursively, in integers
only.  The translates are classified once against the target into one table:
shared rows of normals (the base's ``constraint_rows``, where an equality is
two opposite rows), per row one column of integer offsets over the translates,
read off the translations' rows as arithmetic progressions, and per row a
bitmask of the translates at or above each offset.  A piece's barycenter
values on the rows are rounded (up in closed mode, down in the relative-
interior one) and looked up, and a remaining translate containing it is
carved out of the piece along its rows' halfspaces, one at a time: of those,
the lowest left after narrowing them, vertex by vertex, to the ones that also
hold the piece's vertices.  That leaves closed branches whose union is
exactly the piece minus the translate's region, so the decision, and with it
the verdict, is exact in both modes and in any carving order.  A piece that
one remaining translate already holds is skipped, not carved: its highest
vertex value on each row is looked up in the same index (in the relative-
interior mode one offset lower when the face reaching it lies in a target
facet, as the search never needs a boundary point covered).  A piece is its
vertices, homogeneous integer vectors led by their row values (the slack
matrix of the double description method; linear, so a cut's new vertex
carries its endpoints' combination and no cut or lookup takes a dot product),
with one incidence bitmask each, which every cut updates exactly, so its
edges come from the combinatorial adjacency test, which skips vertex pairs
with fewer common bits than an edge of the piece's dimension needs.  It is
the only covering decider; ``is_2_convex_normal`` and
``has_interior_translate_cover`` pose their questions through it.

Every decider returns a ``PropertyReport`` whose verdict is Holds (covered)
or Fails (not covered); the witness of a failure is an uncovered point.  When
the target region contains an uncovered lattice point, the lexicographically
smallest one is reported; otherwise the first uncovered piece barycenter in
the canonical subtraction order, which carves the lowest remaining translate
containing each barycenter.  The search replays that order only when it
finds an uncovered point, and only from its first carve that differed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress, product
from math import gcd, lcm
from operator import and_, mul, or_

from .geometry import (
    CELL_BUDGET_ENV,
    CellBudgetExceeded,
    DimensionMismatch,
    GeometryError,
    IntVec,
    Mode,
    Vec,
    _piece_edges,
    _tight_masks,
    cell_budget,
    constraint_rows,
    contains,
    dot,
    norm_scalar,
    vec_sub,
)
from .polytope import LatticePolytope, PointSet, dilate, interior_lattice_points, lattice_points
from .properties import PropertyReport, Verdict, point_set_sum


@dataclass(frozen=True)
class CoverageQuery:
    target: LatticePolytope
    translate_base: LatticePolytope
    translations: PointSet
    mode: Mode

    def __post_init__(self) -> None:
        n = self.target.ambient_dim
        if self.translate_base.ambient_dim != n or self.translations.ambient_dim != n:
            raise DimensionMismatch("target, translate_base and translations must share an ambient dimension")
        if len(self.translations) == 0:
            raise GeometryError("translation set must be nonempty")


# ---------------------------------------------------------------------------
# the translates' row table


def _constant_value(normal: IntVec, verts: tuple[IntVec, ...]) -> int | None:
    vals = {dot(normal, v) for v in verts}
    return vals.pop() if len(vals) == 1 else None


def _classify_translates(q: CoverageQuery) -> tuple[tuple[IntVec, ...], list[list[int]], int]:
    """The translates as one column table ``(normals, table, live)``.

    ``normals`` holds the normals of the base's ``constraint_rows`` that vary
    on the target, in that order; ``table`` holds one column per such row, its
    right-hand side for each of the ``live`` translates in sorted-shift order.
    A row constant on the target settles itself for the whole target: the
    translate is dropped, or the row holds everywhere there and is left out.
    So a target point ``x`` lies in translate ``i`` iff ``u.x <= col[i]`` on
    every row, and in its open region iff ``u.x < col[i]`` (relative-interior
    mode refuses varying equalities).  The offsets are integers, as the base
    is a lattice polytope.  A column is read off the translations' rows: along
    a row ``(p, lo..hi)``, ``c + u.t`` steps by ``u``'s last entry from
    ``c + u_head.p + u_last*lo``, and the rows come in sorted-shift order.
    """
    rows = constraint_rows(q.translate_base.desc)
    tverts = q.target.desc.vertices
    relint = q.mode is Mode.RELATIVE_INTERIOR
    if any(type(c) is not int for _, c, _ in rows):  # every offset is c + u.t, and u.t is an integer
        raise AssertionError("a translate offset is not an integer")

    def column(u: IntVec, c: int) -> list[int]:
        head, last, col = u[:-1], u[-1] if u else 0, []
        for p, lo, hi in q.translations.rows:
            s = c + dot(head, p) + last * lo
            col += range(s, s + last * (hi - lo + 1), last) if last else [s] * (hi - lo + 1)
        return col

    varying, keep = [], [True] * len(q.translations)
    for u, c, is_facet in rows:
        val = _constant_value(u, tverts)
        if val is None:
            varying.append((u, c, is_facet))
        else:  # keep a translate iff its row holds somewhere on the target (open mode: a facet row strictly)
            keep = [k and off >= val + (relint and is_facet) for k, off in zip(keep, column(u, c))]
    live = sum(keep)
    if relint and live and not all(f for _, _, f in varying):
        raise GeometryError(
            "RelativeInterior covering needs every translate to span the "
            "target's affine hull or miss it entirely"
        )
    return tuple(u for u, _, _ in varying), [list(compress(column(u, c), keep)) for u, c, _ in varying], live


def _row_index(table: list[list[int]]) -> list[tuple[list[int], list[int]]]:
    """Per column, its distinct offsets ascending and, beside each, the bitmask
    of the translates whose offset is at least that value (then a final 0)."""
    index = []
    for col in table:
        bits: dict[int, int] = {}  # offset -> the translates at exactly that offset
        for i, off in enumerate(col):
            bits[off] = bits.get(off, 0) | 1 << i
        levels = sorted(bits)
        index.append((levels, [*accumulate(map(bits.__getitem__, reversed(levels)), or_)][::-1] + [0]))
    return index


# ---------------------------------------------------------------------------
# the subtraction decider


@dataclass(frozen=True)
class _Piece:
    """A closed polytope produced by cutting: its vertices, in no particular
    order, each ``x`` as the integer vector ``(u_1.wx, ..., u_K.wx, wx, w)``
    over the row normals ``u_k`` of the table, ``w > 0``, gcd 1, and their
    incidences.  Bit ``k`` of ``masks[i]`` is set iff constraint ``k`` (a
    target facet or a cut made so far) is tight at vertex ``i``; that is all
    the adjacency test of ``_piece_edges`` needs.  ``dim`` is the piece's
    dimension, or 0 when unknown: the start piece takes the target's, both
    parts of a split keep their parent's, and a relative-interior slice, a
    face of lower dimension, takes 0.  An edge of a ``dim``-piece lies on at
    least ``dim - 1`` constraints, so a cut tests only vertex pairs with that
    many common bits."""

    vertices: tuple[IntVec, ...]
    masks: tuple[int, ...]
    dim: int


def _cut_piece(piece: _Piece, k: int, offset: int) -> tuple[_Piece | None, _Piece | None, list[int]]:
    """Split a piece along row k's hyperplane u_k.x = offset into (<= side,
    >= side, cut values).

    A vertex ``V`` takes the cut value ``V[k] - offset*V[-1]``, an integer of
    the sign of ``u_k.x - offset``.  The masks are updated, never recomputed.
    The cut takes a bit no vertex uses; a kept vertex gains it iff it lies on
    the hyperplane.  Only an edge ``(i, j)`` with cut values ``vi < 0 < vj``
    crosses the hyperplane, so only those vertex pairs take the adjacency
    test.  Its crossing ``vi*Vj - vj*Vi`` (made canonical) lies strictly
    inside the edge, so it repeats no vertex, and gets ``masks[i] & masks[j]``
    plus the cut bit: a constraint valid on the piece is tight at an interior
    point of a segment iff it is tight at both ends.  The row columns are
    integer combinations of the ``(wx, w)`` entries, so the crossing's are its
    row values, and they leave its gcd that of its ``(wx, w)`` entries.
    """
    vals = [V[k] - offset * V[-1] for V in piece.vertices]
    if min(vals) >= 0:
        return None, piece, vals
    if max(vals) <= 0:
        return piece, None, vals
    cut = 1 << reduce(or_, piece.masks).bit_length()
    kept = [(v, m | cut if s == 0 else m, s) for v, m, s in zip(piece.vertices, piece.masks, vals)]
    below = [i for i, s in enumerate(vals) if s < 0]
    above = [j for j, s in enumerate(vals) if s > 0]
    crossings = []
    for i, j in _piece_edges(piece.vertices, piece.masks, product(below, above), piece.dim - 1):
        vi, vj = vals[i], vals[j]
        x = [vi * b - vj * a for a, b in zip(piece.vertices[i], piece.vertices[j])]
        g = gcd(*x) if x[-1] > 0 else -gcd(*x)
        crossings.append((tuple(c // g for c in x), piece.masks[i] & piece.masks[j] | cut))
    neg = [(v, m) for v, m, s in kept if s <= 0] + crossings
    pos = [(v, m) for v, m, s in kept if s >= 0] + crossings
    return _Piece(*zip(*neg), piece.dim), _Piece(*zip(*pos), piece.dim), vals


def _subtract_branches(piece: _Piece, offs: IntVec, mode: Mode) -> list[_Piece]:
    """Carve one translate, given by its offsets ``offs`` over the table's
    rows, out of the piece, one row at a time.

    Closed mode: branch interiors are strictly outside the translate and the
    dropped remainder lies inside it.  A translate made thin by a varying
    equality splits the piece along that equality's hyperplane (see
    ``constraint_rows``); the thin covered set stays inside both branches but
    never strictly inside a full-dimensional one, which the closed-mode
    verdict tolerates (see covers).

    Relative-interior mode: the branch union is exactly the piece minus the
    open region.  A piece on the <= side of a row still yields its slice on
    that hyperplane, the face of its tight vertices with their masks; a bit
    for the hyperplane, set at every vertex, would not change the edge test.
    """
    branches: list[_Piece] = []
    rest: _Piece | None = piece
    for k, c in enumerate(offs):
        if rest is None:
            break
        rest, outside, vals = _cut_piece(rest, k, c)
        if outside is None and mode is Mode.RELATIVE_INTERIOR:  # rest came back whole: vals are its own
            on = [(v, m) for v, m, s in zip(rest.vertices, rest.masks, vals) if s == 0]
            outside = _Piece(*zip(*on), 0) if on else None
        if outside is not None:
            branches.append(outside)
    return branches


def _decide_by_subtraction(q: CoverageQuery) -> Vec | None:
    """An uncovered piece barycenter, or None when the translates cover.

    A piece's barycenter ``b`` is ``num / den``, ``den = k*L`` for ``k``
    vertices of weights with lcm ``L``.  For an integer offset ``off``, ``u.b
    <= off`` iff ``ceil(u.num / den) <= off`` and ``u.b < off`` iff
    ``floor(u.num / den) < off``, so each row value is rounded once and looked
    up in the row's index; the remaining translates in every mask found,
    ``hits``, contain ``b``, so carving any of them makes progress.

    The carve takes one of them that holds more of the piece: each vertex in
    turn narrows ``hits`` to the translates whose closed region holds it, its
    row values rounded up over ``L`` and looked up the same way, in both
    modes; a vertex that would empty the set is passed over, and the lowest
    bit left is carved.  The
    canonical order carves the lowest bit of ``hits`` instead, and the
    witness is the first uncovered barycenter in that order.  Both orders pop
    the same pieces up to their first differing pick, so the stack as it
    stood there is saved.  An uncovered barycenter found before that pick is
    the canonical witness; one found after it restores the saved stack, and
    from then on every carve takes the lowest bit, so the next uncovered
    barycenter is the canonical witness.  A holding query never replays.

    Closed pieces need no dimension test: ``_cut_piece`` splits a piece only
    when vertices lie strictly on both sides, so both parts keep its
    dimension, and closed mode only cuts, starting from the target.  In the
    open mode a piece lies in the target's boundary iff one facet bit is set
    at every vertex.  Facet bits are exact, as cuts take higher bits: each
    piece cut uses a bit at or above the last facet's (the start piece that
    facet, a split part its cut, a slice off the boundary its cut).

    Vertex ``V`` takes the row value ``V[k] * (L / w) = L*(u_k.x)``, read
    from its column.  Those values sum to ``u_k.num``; their maximum ``top``,
    rounded as a barycenter value is but over ``L``, finds the translates that
    hold the piece, or whose open region does.  In the open mode a ``top``
    divisible by ``L`` also admits the offset ``top / L`` when the vertices
    reaching it share a target facet bit: the face they span lies in the
    target's boundary.  A piece that such a translate ``T`` holds, or holds
    within relint(target), is skipped, and the witness is kept: every
    descendant is carved from other translates, so ``T`` stays in its
    ``remaining`` and covers each descendant barycenter the search tests,
    which in the open mode lies in relint(target) as pieces in a target facet
    are skipped first.  The budget counts every popped piece, replayed ones
    too.
    """
    target = q.target.desc
    normals, table, live = _classify_translates(q)
    index = _row_index(table)
    slack = 1 if q.mode is Mode.CLOSED else 0  # off accepts u.b iff off >= (u.num - slack)//den + 1
    facet_bits = (1 << len(target.facets)) - 1
    budget = cell_budget()
    tverts = target.vertices
    start_verts = tuple((*(dot(u, v) for u in normals), *v, 1) for v in tverts)
    start = _Piece(start_verts, tuple(_tight_masks(tverts, target.facets)), q.target.dim)
    stack: list[tuple[_Piece, int]] = [(start, (1 << live) - 1)]
    processed = 0
    fuller, replay = True, None  # carve the fullest translate; the stack at the first pick that differed
    while stack:
        piece, remaining = stack.pop()
        processed += 1
        if processed > budget:
            raise CellBudgetExceeded(
                f"covering subtraction exceeded {budget} pieces; "
                f"raise {CELL_BUDGET_ENV} to allow more"
            )
        if not slack and reduce(and_, piece.masks) & facet_bits:  # a piece in the target's boundary
            continue
        cols = list(zip(*piece.vertices))
        scale = lcm(*cols[-1])
        fs = [scale // w for w in cols[-1]]
        den = len(fs) * scale
        hits = whole = remaining
        rows = []
        for col, (levels, masks) in zip(cols, index):
            vals = list(map(mul, col, fs))  # L*(u_k.x) per vertex, L = scale
            rows.append(vals)
            hits &= masks[bisect_left(levels, (sum(vals) - slack) // den + 1)]
            if not whole:
                continue
            top = max(vals)
            key = (top - slack) // scale + 1
            if not slack and top % scale == 0 and reduce(
                and_, (m for m, v in zip(piece.masks, vals) if v == top)
            ) & facet_bits:  # the top face lies in a target facet
                key -= 1
            whole &= masks[bisect_left(levels, key)]
        if not hits:
            if replay is None:
                return tuple(norm_scalar(Fraction(sum(map(mul, c, fs)), den)) for c in cols[len(normals):-1])
            stack, replay, fuller = replay, None, False
            continue
        if whole:
            continue
        pick = hits & -hits
        if fuller and hits != pick:
            held = hits
            for vertex in zip(*rows):
                m = held
                for v, (levels, masks) in zip(vertex, index):
                    m &= masks[bisect_left(levels, (v - 1) // scale + 1)]
                if m:
                    held = m
            if held & -held != pick:
                if replay is None:
                    replay = stack + [(piece, remaining)]
                pick = held & -held
        offs = tuple(col[pick.bit_length() - 1] for col in table)
        for branch in reversed(_subtract_branches(piece, offs, q.mode)):
            stack.append((branch, remaining ^ pick))
    return None


# ---------------------------------------------------------------------------
# public deciders


def _lattice_witness(q: CoverageQuery) -> IntVec | None:
    # lattice x lies in t + B exactly when x - t is a lattice point of B (of
    # relint B in open mode); a translate may leave the target region
    points = lattice_points if q.mode is Mode.CLOSED else interior_lattice_points
    covered = point_set_sum(q.translations, points(q.translate_base))
    return next(points(q.target).not_in(covered), None)


def _verify_witness(q: CoverageQuery, w: Vec) -> None:
    if not contains(q.target.desc, w, q.mode):
        raise AssertionError("witness fell outside the target region")
    for t in q.translations:
        if contains(q.translate_base.desc, vec_sub(w, t), q.mode):
            raise AssertionError(f"witness {w} is covered by translate {t}")


def covers(q: CoverageQuery) -> PropertyReport:
    """Decide whether the translates of translate_base cover the target region.

    Closed mode asks whether the target is a union of closed translates;
    RelativeInterior mode asks whether relint(target) is a union of open
    translates.  The verdict is exact.  Witnesses follow the lattice-first
    convention and are re-verified by direct membership before returning.
    """
    w = _lattice_witness(q)
    if w is None:
        w = _decide_by_subtraction(q)
    if w is not None:
        _verify_witness(q, w)
    return PropertyReport("covers", Verdict.HOLDS if w is None else Verdict.FAILS, w)


def is_2_convex_normal(P: LatticePolytope) -> PropertyReport:
    """Is 2P the union of the translates {t + P : t a lattice point of P}?"""
    pts = lattice_points(P)
    q = CoverageQuery(target=dilate(P, 2), translate_base=P, translations=pts, mode=Mode.CLOSED)
    return replace(covers(q), property="2cn")


def has_interior_translate_cover(P: LatticePolytope) -> PropertyReport:
    """Is relint(2P) the union of the translates {t + relint(P)}?

    The reverse inclusion, every translate sitting inside relint(2P), is an
    identity; it is asserted on one relative interior sample per translate, not
    searched for: the barycenter b + t, tested in integers as k(b + t) = S + kt,
    with k vertices summing to S: the integer vector S + kt must lie in
    relint(2kP).  Along a row (p, lo..hi) of the lattice points each value
    u.(S + kt) is linear, so it is read at the row's ends: an equality must
    give c at both, and a facet's larger end value must be below c.
    """
    pts = lattice_points(P)
    two = dilate(P, 2)
    k = len(P.desc.vertices)
    S = tuple(map(sum, zip(*P.desc.vertices)))
    for u, c, is_facet in constraint_rows(dilate(two, k).desc):  # over integers u.x < c is u.x <= c - 1
        head, last, us = u[:-1], k * u[-1], dot(u, S)
        for p, lo, hi in pts.rows:
            if us + k * dot(head, p) + max(last * lo, last * hi) > c - is_facet:
                raise AssertionError("interior translate escaped relint(2P); this indicates a geometry bug")
    q = CoverageQuery(target=two, translate_base=P, translations=pts, mode=Mode.RELATIVE_INTERIOR)
    return replace(covers(q), property="cond01")
