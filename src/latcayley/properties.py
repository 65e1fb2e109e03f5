"""Decision procedures for lattice polytope properties of the Ehrhart ring.

Covers the integer decomposition property (for one polytope and for tuples),
the level index, levelness, the Gorenstein property, and the sufficient
edge-length criterion for 2-convex-normality.

Every decomposition question (IDP, tuple IDP, levelness) is one sumset
equality, decided by ``_first_missing`` through ``point_set_sum``, the one
sumset kernel, on rows (runs of the last coordinate), never point by point.
Every decomposition check sums two sets: the last certified one and the
generators.  A sum with the region's rows settles it, and a point the sum
misses is re-checked, and placed by the level scan's fallback, one row at a
time.

Verdict semantics: IDP checks certify.  Checking the decomposition equality
up to degree max(2, d-1) is a complete certificate, because the equality
(n+1)P cap Z = (nP cap Z) + (P cap Z) holds unconditionally once n >= d-1.
The level equality has the bound d+1: the interior points of the Ehrhart
cone form the canonical module, which is generated in degrees <= d+1
(Bruns-Herzog, Cohen-Macaulay Rings, ch. 6), so a level failure shows at
some degree <= d+1, which is the default level horizon.  Level and
Gorenstein checks still report a clean scan as VerifiedUpToHorizon with the
horizon they scanned, never Holds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, mul, sub

from .geometry import DimensionMismatch, GeometryError, IntVec, Mode, constraint_rows, contains
from .polytope import (
    LatticePolytope,
    PointSet,
    dilate,
    edges,
    interior_lattice_points,
    lattice_points,
    minkowski_sum,
)


class Verdict(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    VERIFIED_UP_TO_HORIZON = "VerifiedUpToHorizon"


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, tuple):
        return [_jsonable(e) for e in x]
    return x


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check; every decider in the toolkit returns one.

    ``witness`` is None unless the verdict is Fails.  For the decomposition
    checks it is a pair of the failing degree (for tuple checks, the failing
    index subset) and a lattice point lying in the left-hand set but not in the
    right-hand set of the defining equality; for the covering checks it is the
    uncovered point; for the edge criterion it is the pair (lattice length,
    endpoints) of the first short edge.  ``degrees_checked`` is the inclusive
    range scanned.
    """

    property: str
    verdict: Verdict
    witness: object = None
    degrees_checked: tuple[int, int] | None = None
    horizon_used: int | None = None

    def __post_init__(self) -> None:
        if (self.verdict is Verdict.FAILS) != (self.witness is not None):
            raise ValueError("witness must be present exactly when the verdict is Fails")

    def to_dict(self) -> dict:
        """JSON form; Fraction coordinates become "p/q" strings."""
        return {
            "property": self.property,
            "verdict": self.verdict.value,
            "witness": _jsonable(self.witness),
            "degrees_checked": list(self.degrees_checked) if self.degrees_checked else None,
            "horizon": self.horizon_used,
        }


@dataclass(frozen=True)
class LevelData:
    index_r: int
    interior_generators: PointSet

    def __post_init__(self) -> None:
        if self.index_r < 1 or len(self.interior_generators) == 0:
            raise ValueError("level index data requires a positive index and generators")


def _box(S: PointSet) -> tuple[list[int], list[int]]:
    """The least and the greatest value of each coordinate over S, read off its rows."""
    heads = list(zip(*(p for p, _, _ in S.rows)))
    return [*map(min, heads), min(x for _, x, _ in S.rows)], [*map(max, heads), max(y for _, _, y in S.rows)]


def _run_keys(S: PointSet, lo: list[int], strides: list[int], W: int) -> list[int]:
    """S's rows, each packed as start*(W+1) + length, start the code of its first point."""
    base, head = sum(map(mul, lo, strides)), strides[:-1]
    return [(sum(map(mul, p, head)) + x - base) * (W + 1) + y - x + 1 for p, x, y in S.rows]


def point_set_sum(A: PointSet, B: PointSet) -> PointSet:
    """{a + b}, formed by adding rows (runs of the last coordinate), not point
    pairs: rows in, rows out.

    Each point is packed into one int, a mixed-radix code with the first
    coordinate most significant.  Coordinate i of A is offset by A's minimum
    lo_A[i], and of B by lo_B[i]; its digit gets the width
    span_A[i] + span_B[i] + 1, so code(a) + code(b) is the code of a + b
    (offset by lo_A + lo_B) with no digit carrying, and code order is
    lexicographic order.  The last coordinate gets one spare digit, width
    W = span_A + span_B + 2: its digits in A or B never reach W - 1, so a run
    of consecutive codes never crosses into the next row, even where the
    other factor's last coordinate is constant.

    A row, the run [s, s + k) of codes, is packed as s*(W+1) + k by one dot
    product.  Two run lengths add up to at most W, so one int add sums two
    runs: [s, s + k) + [t, t + l) = [s + t, s + t + k + l - 1).  The distinct
    summed runs, sorted, merge where they overlap or touch; none reaches the
    last digit of its row, so each merged run is one maximal row of the sum,
    decoded from its start by one divmod chain.  The work is rows times rows.
    """
    if A.ambient_dim != B.ambient_dim:
        raise DimensionMismatch("point set sum needs equal ambient dimensions")
    n = A.ambient_dim
    if n == 0:  # no coordinates to pack
        return A if len(B) else B
    if not A.rows or not B.rows:
        return PointSet._from_rows(n, ())
    (lo_a, hi_a), (lo_b, hi_b) = (_box(S) for S in (A, B))
    widths = [ha - la + hb - lb + 1 for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b)]
    widths[-1] += 1  # the spare digit
    W = widths[-1]
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * widths[i + 1]
    ka, kb = _run_keys(A, lo_a, strides, W), _run_keys(B, lo_b, strides, W)
    offsets = list(map(add, lo_a, lo_b))
    digits = list(zip(widths[-2::-1], offsets[-2::-1]))
    rows: list[list] = []
    e0 = -1  # the end of the merged run [s0, e0) of codes that rows[-1] holds
    for key in sorted({x + y for x in ka for y in kb}):
        s, k = divmod(key, W + 1)
        e = s + k - 1
        if s > e0:
            q, x = divmod(s, W)
            head = []
            for w, o in digits:
                q, d = divmod(q, w)
                head.append(d + o)
            rows.append([tuple(head[::-1]), x + offsets[-1], x + offsets[-1] + k - 2])
            e0 = e
        elif e > e0:
            rows[-1][2] += e - e0
            e0 = e
    return PointSet._from_rows(n, tuple(map(tuple, rows)))


def _in_sum(w: IntVec, S: PointSet, T: PointSet) -> bool:
    """Is w = s + t for some s in S and t in T?  With (head, x) = w, the points
    (q, y), lo <= y <= hi, of a row of T leave (head - q, x - y); S's last row at
    or before (head - q, x - lo) is the one to reach x - hi, if any row does."""
    head, x = w[:-1], w[-1] if w else 0
    for q, lo, hi in T.rows:
        p = tuple(map(sub, head, q))
        r, _, end = S._row_at(p, x - lo)
        if r == p and end >= x - hi:
            return True
    return False


def _in_translates(w: IntVec, G: PointSet, D: LatticePolytope) -> bool:
    """Is w - g in D for some g in G?  For a row (p, lo, hi) of G, w - (p, y) = z - y e
    with z = (head - p, x), (head, x) = w; a row u.v <= c of D (``constraint_rows``)
    holds there iff u_last y >= u.z - c: one integer bound on y, or none, or no y."""
    rows = constraint_rows(D.desc)
    head, x = w[:-1], w[-1] if w else 0
    for p, lo, hi in G.rows:
        z = (*map(sub, head, p), x)
        for u, c, _ in rows:
            t, m = c - sum(map(mul, u, z)), u[-1]
            if m > 0:
                lo = max(lo, -(t // m))
            elif m < 0:
                hi = min(hi, t // -m)
            if lo > hi or (m == 0 and t < 0):
                break
        else:
            return True
    return False


def _first_missing(Q: LatticePolytope, mode: Mode, A: PointSet, B: PointSet, fallback=None) -> IntVec | None:
    """Smallest lattice point of Q (closed, or relative interior, by mode) that
    is not a + b with a in A and b in B, nor, given a fallback (G, D), g + x
    with g in G and x in the polytope D.  A is the last certified set and B the
    generators, so A + B lies in that region by identity: equal rows settle
    the question at once, and otherwise containment is asserted.  Each point
    missing from the sum is re-checked against Q and against each row of B
    before the fallback may place it, one row of G at a time.
    """
    region = lattice_points(Q) if mode is Mode.CLOSED else interior_lattice_points(Q)
    have = point_set_sum(A, B)
    if have.rows == region.rows:
        return None
    if next(have.not_in(region), None) is not None:
        raise AssertionError("sum escaped the region; geometry bug")
    for w in region.not_in(have):
        if not contains(Q.desc, w, mode) or _in_sum(w, A, B):
            raise AssertionError(f"missing point {w} failed its re-check")
        if not (fallback and _in_translates(w, *fallback)):
            return w
    return None


def is_idp(P: LatticePolytope, max_degree: int | None = None) -> PropertyReport:
    """Does every lattice point of nP decompose as a sum of n points of P?

    Scans n = 2 .. D, comparing nP cap Z against (n-1)P cap Z + P cap Z.
    Degrees up to max(2, dim(P)-1), the default D, certify all degrees, so a
    clean scan that reaches them is Holds.  A caller-supplied bound below that
    certifies nothing beyond itself: a clean scan is VerifiedUpToHorizon with
    horizon D.  A bound below 2 leaves no degree to check, so it is refused.
    """
    D = max_degree if max_degree is not None else max(2, P.dim - 1)
    if D < 2:
        raise GeometryError("max_degree must be at least 2, the first degree checked")
    gens = lattice_points(P)
    prev = gens
    for n in range(2, D + 1):
        Q = dilate(P, n)
        w = _first_missing(Q, Mode.CLOSED, prev, gens)
        if w is not None:
            return PropertyReport("idp", Verdict.FAILS, (n, w), (2, D))
        prev = lattice_points(Q)
    if D >= max(2, P.dim - 1):
        return PropertyReport("idp", Verdict.HOLDS, None, (2, D))
    return PropertyReport("idp", Verdict.VERIFIED_UP_TO_HORIZON, None, (2, D), D)


def is_tuple_idp(Ps: list[LatticePolytope]) -> PropertyReport:
    """Does every subcollection sum decompose over its members' lattice points?

    Compares (sum of P_i, i in I) cap Z with the pointwise sum of the P_i cap Z.
    A singleton is its own generator set and cannot fail, so the scan starts at
    |I| = 2; the verdict still covers sizes 1..m, as degrees_checked says.
    Subsets go by size, then lexicographically; the witness is the first
    failing I with its smallest missing point.  So I[:-1] was checked, and
    passed, before I: the lattice points of its sum are the sum of its
    members' lattice points, and adding the generators of P_{I[-1]} to them,
    one sum per subset, gives the right side for I.
    """
    if not Ps:
        raise GeometryError("tuple check needs at least one polytope")
    n = Ps[0].ambient_dim
    if any(P.ambient_dim != n for P in Ps):
        raise DimensionMismatch("tuple check needs a common ambient dimension")
    gens = [lattice_points(P) for P in Ps]
    m = len(Ps)
    for size in range(2, m + 1):
        for I in combinations(range(m), size):
            Q = minkowski_sum([Ps[i] for i in I])
            prev = lattice_points(minkowski_sum([Ps[i] for i in I[:-1]]))
            w = _first_missing(Q, Mode.CLOSED, prev, gens[I[-1]])
            if w is not None:
                subset = tuple(i + 1 for i in I)
                return PropertyReport("tuple-idp", Verdict.FAILS, (subset, w), (1, m))
    return PropertyReport("tuple-idp", Verdict.HOLDS, None, (1, m))


def level_index(P: LatticePolytope) -> LevelData:
    """Smallest t with an interior lattice point in tP, and those points.

    Terminates: P contains a lattice d-simplex S, v_0, ..., v_d (not always a
    unimodular one: the Reeve tetrahedra contain none), and v_0 + ... + v_d
    lies in relint((d+1)S), inside relint((d+1)P) as S spans aff P.
    """
    for t in range(1, P.dim + 2):
        inner = interior_lattice_points(dilate(P, t))
        if len(inner):
            return LevelData(t, inner)
    raise AssertionError("no interior lattice point up to dim+1; geometry bug")


def level_status(P: LatticePolytope, horizon: int | None = None) -> PropertyReport:
    """Check the level property degree by degree up to a horizon.

    With r the level index, levelness demands, for every n >= r,
    int(nP) cap Z = int(rP) cap Z + (n-r)P cap Z, with 0P = {0}; degree r
    holds by itself.  A failure shows at some degree n <= d+1 (see the module
    docstring), so the default horizon is d+1, never below r; a clean scan is
    still VerifiedUpToHorizon with the horizon recorded.  degrees_checked
    starts at r, so a caller horizon below r is refused.

    The scan is incremental.  Once degree n-1 holds, int((n-1)P) =
    int(rP) + (n-1-r)P cap Z, so X = int((n-1)P) + P cap Z lies in
    int(rP) + (n-r)P cap Z, inside int(nP) (asserted in ``_first_missing``).
    A point w of int(nP) cap Z outside X still decomposes iff w - g lies in
    (n-r)P for some g in int(rP) cap Z, a membership test on the dilate's
    description; the first w failing it is the smallest point missing from
    the full sum.  No (n-r)P with n-r >= 2 is enumerated.
    """
    data = level_index(P)
    r = data.index_r
    H = horizon if horizon is not None else P.dim + 1
    if H < r:
        raise GeometryError("horizon must be at least the level index")
    gens = inner = data.interior_generators
    for n in range(r + 1, H + 1):
        Q = dilate(P, n)
        w = _first_missing(Q, Mode.RELATIVE_INTERIOR, inner, lattice_points(P), (gens, dilate(P, n - r)))
        if w is not None:
            return PropertyReport("level", Verdict.FAILS, (n, w), (r, H), H)
        inner = interior_lattice_points(Q)
    return PropertyReport("level", Verdict.VERIFIED_UP_TO_HORIZON, None, (r, H), H)


def is_gorenstein(P: LatticePolytope, horizon: int | None = None) -> PropertyReport:
    """Level up to the horizon (by default d+1, as in ``level_status``) with a
    single interior generator.

    A failure of levelness fails this check with the same witness; a level
    check that survives the horizon but has several generators fails with the
    second-smallest generator as the witness of non-uniqueness.
    """
    level = level_status(P, horizon)
    witness = level.witness
    if witness is None:
        r = level.degrees_checked[0]
        gens = interior_lattice_points(dilate(P, r))
        if len(gens) != 1:
            witness = (r, gens.points[1])
    verdict = Verdict.VERIFIED_UP_TO_HORIZON if witness is None else Verdict.FAILS
    return PropertyReport(
        "gorenstein", verdict, witness, level.degrees_checked, level.horizon_used
    )


def edge_length_criterion(P: LatticePolytope) -> PropertyReport:
    """Does every edge have lattice length at least 2*d*(d+1)?

    A sufficient condition for 2-convex-normality.  Undefined for points.  The
    witness of a failure is (lattice length, endpoints) of the first short
    edge in ``edges`` order.
    """
    d = P.dim
    if d == 0:
        raise GeometryError("edge length criterion needs dimension at least 1")
    threshold = 2 * d * (d + 1)
    for e in edges(P):
        if e.lattice_length < threshold:
            return PropertyReport("edge-criterion", Verdict.FAILS, (e.lattice_length, e.endpoints))
    return PropertyReport("edge-criterion", Verdict.HOLDS)
