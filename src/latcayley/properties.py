"""Decision procedures for lattice polytope properties of the Ehrhart ring.

Covers the integer decomposition property (for one polytope and for tuples),
the level index, levelness, the Gorenstein property, and the sufficient
edge-length criterion for 2-convex-normality.

Every decomposition question (IDP, tuple IDP, levelness) is one sumset
equality, decided by ``_first_missing`` through ``point_set_sum``, the one
sumset kernel.

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
from functools import reduce
from itertools import combinations, repeat
from operator import add, floordiv, mod, mul

from .geometry import DimensionMismatch, GeometryError, IntVec, Mode, contains, vec_sub
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


def _run_keys(S: PointSet, lo: list[int], strides: list[int], W: int) -> list[int]:
    """S's maximal runs of consecutive codes, each packed as start*(W+1) + length."""
    base = sum(map(mul, lo, strides))
    codes = [sum(map(mul, p, strides)) - base for p in S.points]
    ends = [i for i in range(1, len(codes)) if codes[i] != codes[i - 1] + 1]
    return [codes[s] * (W + 1) + e - s for s, e in zip([0, *ends], [*ends, len(codes)])]


def point_set_sum(A: PointSet, B: PointSet) -> PointSet:
    """{a + b}, formed by adding runs of the last coordinate, not point pairs.

    Each point is packed into one int, a mixed-radix code with the first
    coordinate most significant.  Coordinate i of A is offset by A's minimum
    lo_A[i], and of B by lo_B[i]; its digit gets the width
    span_A[i] + span_B[i] + 1, so code(a) + code(b) is the code of a + b
    (offset by lo_A + lo_B) with no digit carrying, and code order is
    lexicographic order.  The last coordinate gets one spare digit, width
    W = span_A + span_B + 2: its digits in A or B never reach W - 1, so a run
    of consecutive codes never crosses into the next row, even where the
    other factor's last coordinate is constant.

    A run [s, s + k) of consecutive codes (one interval of the last
    coordinate, as the lattice points of a convex body meet every line) is
    packed as s*(W+1) + k.  Two run lengths add up to at most W, so one int
    add sums two runs: [s, s + k) + [t, t + l) = [s + t, s + t + k + l - 1).
    The distinct summed runs, sorted, are merged where they overlap; no
    summed run reaches the last digit of its row, so none merges across
    rows.  The merged runs expand to the sorted codes of the sum, which are
    decoded column by column.  The work is runs times runs, which for convex
    factors is rows times rows, not points times points; for scattered
    factors every run is one point.
    """
    if A.ambient_dim != B.ambient_dim:
        raise DimensionMismatch("point set sum needs equal ambient dimensions")
    n = A.ambient_dim
    if n == 0:  # no coordinates to pack
        return A if len(B) else B
    if not len(A) or not len(B):
        return PointSet(n, ())
    cols_a, cols_b = list(zip(*A.points)), list(zip(*B.points))
    lo_a, lo_b = [min(c) for c in cols_a], [min(c) for c in cols_b]
    widths = [max(a) - la + max(b) - lb + 1 for a, la, b, lb in zip(cols_a, lo_a, cols_b, lo_b)]
    widths[-1] += 1  # the spare digit
    W = widths[-1]
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * widths[i + 1]
    ka, kb = _run_keys(A, lo_a, strides, W), _run_keys(B, lo_b, strides, W)
    codes: list[int] = []
    s0 = e0 = 0  # the merged run [s0, e0) being built
    for key in sorted({x + y for x in ka for y in kb}):
        s, k = divmod(key, W + 1)
        e = s + k - 1
        if s > e0:
            codes += range(s0, e0)
            s0, e0 = s, e
        elif e > e0:
            e0 = e
    codes += range(s0, e0)
    cols = []
    for w, la, lb in zip(widths[::-1], lo_a[::-1], lo_b[::-1]):
        cols.append(map(add, map(mod, codes, repeat(w)), repeat(la + lb)))
        codes = list(map(floordiv, codes, repeat(w)))
    return PointSet._sorted(n, tuple(zip(*cols[::-1])))


def _first_missing(Q: LatticePolytope, mode: Mode, factors: list[PointSet]) -> IntVec | None:
    """Smallest lattice point of Q (closed, or relative interior, by mode) that
    is not a sum of one point from each of two or more factors.  The sum lies in
    that region by identity, which is asserted; a missing point is re-checked
    against Q and against each point of the last factor.
    """
    region = lattice_points(Q) if mode is Mode.CLOSED else interior_lattice_points(Q)
    *head, last = factors
    prefix = reduce(point_set_sum, head)
    have = set(point_set_sum(prefix, last).points)
    if not have <= set(region.points):
        raise AssertionError("sum escaped the region; geometry bug")
    for w in region:
        if w not in have:
            if not contains(Q.desc, w, mode) or any(vec_sub(w, b) in prefix for b in last):
                raise AssertionError(f"missing point {w} failed its re-check")
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
        w = _first_missing(Q, Mode.CLOSED, [prev, gens])
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
    failing I with its smallest missing point.
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
            w = _first_missing(Q, Mode.CLOSED, [gens[i] for i in I])
            if w is not None:
                subset = tuple(i + 1 for i in I)
                return PropertyReport("tuple-idp", Verdict.FAILS, (subset, w), (1, m))
    return PropertyReport("tuple-idp", Verdict.HOLDS, None, (1, m))


def level_index(P: LatticePolytope) -> LevelData:
    """Smallest t with an interior lattice point in tP, and those points.

    Terminates: P contains a unimodular image of a d-simplex, so (d+1)P has
    an interior lattice point.
    """
    for t in range(1, P.dim + 2):
        inner = interior_lattice_points(dilate(P, t))
        if len(inner):
            return LevelData(t, inner)
    raise AssertionError("no interior lattice point up to dim+1; geometry bug")


def level_status(P: LatticePolytope, horizon: int | None = None) -> PropertyReport:
    """Check the level property degree by degree up to a horizon.

    With r the level index, levelness demands, for every n >= r,
    int(nP) cap Z = int(rP) cap Z + (n-r)P cap Z, with 0P = {0}.  A failure
    shows at some degree n <= d+1 (see the module docstring), so the default
    horizon is d+1, which is never below r; a clean scan is still reported as
    VerifiedUpToHorizon with the horizon recorded, whatever the horizon.  The
    report's degrees_checked starts at r, so a caller horizon below r is
    refused.  The containment of the sum in int(nP) is an identity, asserted
    (not searched) in ``_first_missing`` like every decomposition.
    """
    data = level_index(P)
    r = data.index_r
    H = horizon if horizon is not None else P.dim + 1
    if H < r:
        raise GeometryError("horizon must be at least the level index")
    gens = data.interior_generators
    for n in range(r, H + 1):
        w = _first_missing(
            dilate(P, n), Mode.RELATIVE_INTERIOR, [gens, lattice_points(dilate(P, n - r))]
        )
        if w is not None:
            return PropertyReport("level", Verdict.FAILS, (n, w), (r, H), H)
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
