"""Randomized verification campaigns for the toolkit's structural results.

Each campaign id names one statement about Minkowski sums, Cayley sums,
coverings, or levelness; a campaign runs seeded random trials shaped to the
statement's hypotheses and records every conclusion that does not hold.  A
nonempty violation list is always loud: it means either a toolkit bug or a
genuine refutation, never noise.

Determinism: trial k of a campaign with seed s uses the derived seed
s * 1_000_003 + k, so reports are reproducible and independent of scheduling.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product

from . import __version__
from .covering import has_interior_translate_cover, is_2_convex_normal
from .generator import random_lattice_polytope
from .geometry import DualDescription, GeometryError, Mode, dot
from .polytope import (
    LatticePolytope,
    cayley_slice,
    cayley_sum,
    dilate,
    from_vertices,
    interior_lattice_points,
    lattice_points,
    minkowski_sum,
    normal_fan_coarsens,
)
from .properties import (
    PropertyReport,
    Verdict,
    is_gorenstein,
    is_idp,
    is_tuple_idp,
    level_status,
)

_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class CampaignConfig:
    theorem_id: str
    trials: int
    seed: int
    dim_max: int = 3
    coord_bound: int = 4
    dilation_bound: int = 3

    def __post_init__(self) -> None:
        for name in ("trials", "seed", "dim_max", "coord_bound", "dilation_bound"):
            if type(getattr(self, name)) is not int:  # a bool or a float is refused, not truncated
                raise GeometryError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.trials < 1:
            raise GeometryError("trials must be at least 1")
        if not (1 <= self.dim_max <= 3):
            raise GeometryError("dim_max must be between 1 and 3")
        if self.coord_bound < 1 or self.dilation_bound < 1:
            raise GeometryError("bounds must be positive")


@dataclass(frozen=True)
class Violation:
    trial: int
    inputs: tuple[tuple[tuple[int, ...], ...], ...]
    note: str
    report: PropertyReport | None = None


@dataclass(frozen=True)
class CampaignReport:
    theorem_id: str
    trials_run: int
    violations: tuple[Violation, ...]
    config: CampaignConfig | None
    version: str = __version__
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "trials_run": self.trials_run,
            "violations": [
                {
                    "trial": v.trial,
                    "inputs": [[list(p) for p in poly] for poly in v.inputs],
                    "note": v.note,
                    "report": None if v.report is None else v.report.to_dict(),
                }
                for v in self.violations
            ],
            "config": None if self.config is None else asdict(self.config),
            "version": self.version,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# instance sampling


def _sub_seed(rng: random.Random) -> int:
    return rng.randrange(2**63)


def _poly2(rng: random.Random, config: CampaignConfig, dim: int | None = None) -> LatticePolytope:
    """Random polytope in ambient dimension 2, of dimension 1 or 2 unless given.

    A random unimodular transform plus translation (``_shear``, no second hull)
    then varies the embedding, so axis-aligned samples gain generic directions;
    it preserves every lattice-equivalence-invariant property.
    """
    if dim is None:
        dim = rng.randint(1, 2)
    P = random_lattice_polytope(_sub_seed(rng), 2, dim, min(config.coord_bound, 2))
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    tx, ty = rng.randint(-1, 1), rng.randint(-1, 1)
    return _shear(P, a, b, (tx, ty))


def _shear(P: LatticePolytope, a: int, b: int, shift=(0, 0)) -> LatticePolytope:
    """P under the unimodular shear (x, y) -> (x1, b*x1 + y), x1 = x + a*y, and the translation,
    mapped without a hull: U = [[1, a], [b, ab + 1]] has determinant 1, so a normal u goes to
    U^-T u, still primitive and outward, with its offset read at the re-sorted image vertices.
    A segment's equality normal e is re-signed to a positive leading entry and its facet normals
    are projected back orthogonal to e, (e.e) u - (e.u) e over their gcd.  A point's equalities
    are the unit rows."""
    tx, ty = shift
    verts = sorted((x + a * y + tx, b * (x + a * y) + y + ty) for x, y in P.vertices)

    def dual(u):  # U^-T u, so that dual(u).(Up) = u.p
        return ((a * b + 1) * u[0] - b * u[1], u[1] - a * u[0])

    eqs = [((0, 1), verts[0][1]), ((1, 0), verts[0][0])] if P.dim == 0 else []
    for e in (dual(w) for w, _ in P.desc.equalities if P.dim == 1):  # a segment's one equality
        e = e if e > (0, 0) else (-e[0], -e[1])
        eqs.append((e, dot(e, verts[0])))
    facets = []
    for u, _ in P.desc.facets:
        u = dual(u)
        for e, _ in eqs:
            u = tuple(dot(e, e) * x - dot(e, u) * y for x, y in zip(u, e))
        g = math.gcd(*u)
        u = tuple(x // g for x in u)
        facets.append((u, max(dot(u, v) for v in verts)))
    return LatticePolytope(DualDescription(2, P.dim, tuple(verts), tuple(sorted(facets)), tuple(eqs)))


def _poly(rng: random.Random, dim: int, bound: int) -> LatticePolytope:
    return random_lattice_polytope(_sub_seed(rng), dim, dim, bound)


def _is_2cn(P: LatticePolytope) -> bool:
    return is_2_convex_normal(P).verdict is Verdict.HOLDS


def _has_cover(P: LatticePolytope) -> bool:
    return has_interior_translate_cover(P).verdict is Verdict.HOLDS


def _has_interior_cover(P: LatticePolytope) -> bool:
    return len(interior_lattice_points(P)) > 0 and _has_cover(P)


def _verts(*Ps: LatticePolytope) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(P.vertices for P in Ps)


def _collect(rng, config, holds, grow, m) -> list[LatticePolytope] | None:
    """m polygons that ``holds``, found within 20 random draws, or None.

    A draw P that fails is replaced by its dilate by ``grow(P)``, since small
    random polytopes rarely qualify; the certificate always comes from the
    decider inside ``holds``, never from the dilation.
    """
    Ps = []
    for _ in range(20):
        P = _poly2(rng, config)
        if holds(P) or holds(P := dilate(P, grow(P))):
            Ps.append(P)
        if len(Ps) == m:
            return Ps
    return None


# ---------------------------------------------------------------------------
# shared conclusion checks (append violations)


def _check_sum_idp(trial, out, Ps, what):
    """Theorem 2.1's conclusions for the factors Ps: their Minkowski sum is
    IDP, and their Cayley sum is IDP iff the tuple is."""
    rep = is_idp(minkowski_sum(Ps))
    if rep.verdict is not Verdict.HOLDS:
        out.append(Violation(trial, _verts(*Ps), f"Minkowski sum of {what} not IDP", rep))
    cay = is_idp(cayley_sum(Ps))
    tup = is_tuple_idp(Ps)
    if (cay.verdict is Verdict.HOLDS) != (tup.verdict is Verdict.HOLDS):
        out.append(
            Violation(
                trial,
                _verts(*Ps),
                f"Cayley IDP and tuple IDP disagree for {what}",
                cay if cay.verdict is Verdict.FAILS else tup,
            )
        )


def _check_level(trial, out, inputs, S, r, what):
    """S has level index r and is level up to degree d+1 (d = dim S), where
    every level failure shows: ``level_status``'s default horizon."""
    rep = level_status(S)
    if rep.degrees_checked[0] != r:
        out.append(Violation(trial, inputs, f"{what} has level index != {r}"))
    if rep.verdict is Verdict.FAILS:
        out.append(Violation(trial, inputs, f"{what} not level", rep))


# ---------------------------------------------------------------------------
# campaign runners (one trial each; append violations)


def _run_thm_0_1(rng, config, trial, out):
    d = rng.randint(1, config.dim_max)
    bound = config.coord_bound if d <= 2 else min(config.coord_bound, 2)
    P = _poly(rng, d, bound)
    for n in sorted({max(1, d - 1), d}):
        rep = is_idp(dilate(P, n))
        if rep.verdict is not Verdict.HOLDS:
            out.append(Violation(trial, _verts(P), f"dilate by {n} not IDP", rep))
    if d <= 2:
        _check_level(trial, out, _verts(P), dilate(P, d + 1), 1, f"dilate by {d+1}")


def _heights(m: int, total: int, lo: int):
    """Integer height vectors of length m with entries >= lo and a sum in
    [1, total], in lexicographic order."""
    return (a for a in product(range(lo, total + 1), repeat=m) if 1 <= sum(a) <= total)


def _run_slices(mode, rng, config, trial, out):
    """Lemma 1.1 (closed mode) or 1.2 (relative-interior mode): the height-a slice
    of |a|C, C = Cayley(Ps), is sum a_i P_i in that mode.  Interior slices need
    positive heights, whose total is at least m."""
    m = rng.randint(2, 3)
    Ps = [_poly2(rng, config) for _ in range(m)]
    C = cayley_sum(Ps)
    lo = int(mode is Mode.RELATIVE_INTERIOR)
    points = interior_lattice_points if lo else lattice_points
    for a in _heights(m, max(config.dilation_bound, lo * m), lo):
        mink = minkowski_sum([dilate(P, ai) for P, ai in zip(Ps, a)])
        if cayley_slice(C, a, mode).rows != tuple((a + p, x, y) for p, x, y in points(mink).rows):
            out.append(Violation(trial, _verts(*Ps), f"{'interior ' * lo}slice mismatch at heights {a}"))


def _factor_criterion(Ps, N: int) -> bool:
    """Each P_i is IDP, and so is the tuple (a_i P_i), zero entries dropped,
    for every height vector a with 1 <= |a| <= N.

    For N >= max(2, dim C - 1), C = Cayley(Ps), this is exactly "C is IDP"
    (Theorem 0.4): by Lemma 1.1 the height-a slice of |a|C is sum a_i P_i,
    so degree n of C decomposes iff every such slice with |a| = n is a sum of
    a_i points of each P_i, and degrees up to max(2, dim C - 1) certify IDP
    of C (Bruns-Gubeladze-Trung 1997), the bound ``is_idp`` scans to.
    """
    return all(is_idp(P).verdict is Verdict.HOLDS for P in Ps) and all(
        is_tuple_idp([dilate(P, x) for P, x in zip(Ps, a) if x > 0]).verdict is Verdict.HOLDS
        for a in _heights(len(Ps), N, 0)
    )


def _run_thm_0_4_equiv(rng, config, trial, out):
    Ps = [_poly2(rng, config) for _ in range(2)]
    C = cayley_sum(Ps)
    N = max(2, C.dim - 1)
    cay = is_idp(C)
    left = cay.verdict is Verdict.HOLDS
    right = _factor_criterion(Ps, N)
    if left != right:
        note = f"Cayley IDP={left} but factor criterion={right} (heights summing to <= {N})"
        out.append(Violation(trial, _verts(*Ps), note, cay))
    if left:
        # the box [0, dilation_bound]^2 less the origin
        for a in list(product(range(config.dilation_bound + 1), repeat=2))[1:]:
            rep = is_idp(minkowski_sum([dilate(P, x) for P, x in zip(Ps, a) if x > 0]))
            if rep.verdict is not Verdict.HOLDS:
                out.append(Violation(trial, _verts(*Ps), f"dilated Minkowski sum {a} not IDP", rep))


def _run_thm_2_1(rng, config, trial, out):
    Ps = _collect(rng, config, _is_2cn, lambda P: P.dim, rng.randint(2, 3))
    if Ps is not None:
        _check_sum_idp(trial, out, Ps, "2-convex-normal factors")


def _run_lemma_2_2(rng, config, trial, out):
    d = rng.randint(1, config.dim_max)
    bound = config.coord_bound if d <= 2 else 1
    P = _poly(rng, d, bound)
    hi = d + 2 if d <= 2 else d
    for n in range(d, hi + 1):
        res = is_2_convex_normal(dilate(P, n))
        if res.verdict is Verdict.FAILS:
            out.append(
                Violation(
                    trial, _verts(P), f"dilate by {n} >= dim {d} not 2-convex-normal; "
                    f"witness {res.witness}"
                )
            )


def _run_cor_2_3(rng, config, trial, out):
    Ps = [_poly2(rng, config) for _ in range(2)]
    ns = [P.dim + rng.randint(0, 1) for P in Ps]
    _check_sum_idp(trial, out, [dilate(P, n) for P, n in zip(Ps, ns)], f"dilates {ns}")


def _run_prop_3_1(rng, config, trial, out):
    Ps = _collect(rng, config, _has_cover, lambda P: P.dim + 1, 1)
    if Ps is None:
        return
    (P,) = Ps
    rep = level_status(P)
    if rep.verdict is Verdict.FAILS:
        out.append(Violation(trial, _verts(P), "interior-cover polytope not level", rep))


def _run_thm_3_2(rng, config, trial, out):
    Ps = _collect(rng, config, _has_interior_cover, lambda P: P.dim + 1, 2)
    if Ps is not None:
        _check_level(trial, out, _verts(*Ps), minkowski_sum(Ps), 1, "Minkowski sum")
        _check_level(trial, out, _verts(*Ps), cayley_sum(Ps), len(Ps), "Cayley sum")


def _run_lemma_3_3(rng, config, trial, out):
    d = rng.randint(1, config.dim_max)
    bound = config.coord_bound if d <= 2 else 1
    P = _poly(rng, d, bound)
    Q = dilate(P, d + 1)
    if not len(interior_lattice_points(Q)):
        out.append(Violation(trial, _verts(P), f"dilate by {d+1} has no interior lattice point"))
        return
    res = has_interior_translate_cover(Q)
    if res.verdict is Verdict.FAILS:
        out.append(
            Violation(
                trial, _verts(P),
                f"dilate by {d+1} misses interior-translate cover; witness {res.witness}"
            )
        )


def _run_cor_3_4(rng, config, trial, out):
    Ps = [_poly2(rng, config) for _ in range(2)]
    Qs = [dilate(P, P.dim + 1 + rng.randint(0, 1)) for P in Ps]
    _check_level(trial, out, _verts(*Qs), minkowski_sum(Qs), 1, "Minkowski sum of dilates")
    _check_level(trial, out, _verts(*Qs), cayley_sum(Qs), len(Qs), "Cayley sum of dilates")


def _gorenstein_pair(rng) -> list[LatticePolytope]:
    """A pair whose Minkowski sum is a centrally symmetric reflexive square,
    modulo a random unimodular change of coordinates (applied to both)."""
    a, b = rng.randint(-1, 1), rng.randint(-1, 1)
    return [_shear(from_vertices(seg), a, b) for seg in ([(-1, 0), (1, 0)], [(0, -1), (0, 1)])]


def _run_bn_gorenstein(rng, config, trial, out):
    if trial % 3 == 0:
        Ps = _gorenstein_pair(rng)
    else:
        Ps = None
        for _ in range(20):
            cand = [_poly2(rng, config) for _ in range(2)]
            if minkowski_sum(cand).dim == 2:
                Ps = cand
                break
        if Ps is None:
            return
    M = minkowski_sum(Ps)
    C = cayley_sum(Ps)
    gM = is_gorenstein(M)
    gC = is_gorenstein(C)
    mink_side = gM.verdict is not Verdict.FAILS and gM.degrees_checked[0] == 1
    cay_side = gC.verdict is not Verdict.FAILS and gC.degrees_checked[0] == 2
    if mink_side != cay_side:
        out.append(
            Violation(
                trial,
                _verts(*Ps),
                f"Gorenstein equivalence broken: Minkowski(index 1)={mink_side}, "
                f"Cayley(index 2)={cay_side}",
                gC if mink_side else gM,
            )
        )


def _run_hnp_polygon_pair(rng, config, trial, out):
    Q = _poly2(rng, config, 2)
    R = _poly2(rng, config)
    P = minkowski_sum([Q, R])
    if not normal_fan_coarsens(P, Q):
        out.append(
            Violation(
                trial, _verts(P, Q),
                "normal fan of a Minkowski summand fails to coarsen the sum's fan"
            )
        )
        return
    rep = is_tuple_idp([P, Q])
    if rep.verdict is not Verdict.HOLDS:
        out.append(Violation(trial, _verts(P, Q), "fan-coarsening polygon pair not IDP", rep))


# campaign id -> (runner, the caveat its report notes, or None)
_CAMPAIGNS = {
    "thm_0_1": (_run_thm_0_1, None),
    "lemma_1_1": (partial(_run_slices, Mode.CLOSED),
                  "slice equality checked on integer height vectors with bounded total; "
                  "the real-valued statement is not mechanically checkable"),
    "lemma_1_2": (partial(_run_slices, Mode.RELATIVE_INTERIOR),
                  "interior slice equality checked on positive integer height vectors with "
                  "bounded total; the real-valued statement is not mechanically checkable"),
    "thm_0_4_equiv": (_run_thm_0_4_equiv, None),
    "thm_2_1": (_run_thm_2_1, None),
    "lemma_2_2": (_run_lemma_2_2, None),
    "cor_2_3": (_run_cor_2_3, None),
    "prop_3_1": (_run_prop_3_1, None),
    "thm_3_2": (_run_thm_3_2, None),
    "lemma_3_3": (_run_lemma_3_3, None),
    "cor_3_4": (_run_cor_3_4, None),
    "bn_gorenstein": (_run_bn_gorenstein, None),
    "hnp_polygon_pair": (_run_hnp_polygon_pair, None),
}

THEOREM_IDS = tuple(sorted(_CAMPAIGNS))


def verify_theorem(config: CampaignConfig) -> CampaignReport:
    """Run one campaign and report the violations found (ideally none)."""
    if config.theorem_id not in _CAMPAIGNS:
        raise GeometryError(
            f"unknown theorem id {config.theorem_id!r}; valid ids: {', '.join(THEOREM_IDS)}"
        )
    runner, caveat = _CAMPAIGNS[config.theorem_id]
    violations: list[Violation] = []
    for trial in range(config.trials):
        rng = random.Random(config.seed * _SEED_STRIDE + trial)
        runner(rng, config, trial, violations)
    return CampaignReport(
        theorem_id=config.theorem_id,
        trials_run=config.trials,
        violations=tuple(violations),
        config=config,
        notes=() if caveat is None else (caveat,),
    )
