"""Seeded workloads: the inputs each one generates, how one item runs, and
how its output is checked.

A campaign item is one ``verify_theorem(CampaignConfig(id, trials=1,
seed=...))`` call at the configuration the acceptance tests pin; the
workload's campaigns take turns.  A ``mink3d`` item is one pair of random
3-polytopes (7 and 8 sample points, coordinates in [-2, 2]) put through the
CLI: ``construct minkowski``, then ``check --property idp`` and ``check
--property level --horizon 4``, where 4 = d + 1 is the smallest horizon
valid for every 3-polytope (the level index is at most d + 1).

Only the public API is used.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

CAMPAIGNS = {
    "slices": (
        ("lemma_1_1", {"dim_max": 2, "dilation_bound": 4}),
        ("lemma_1_2", {"dim_max": 2, "dilation_bound": 4}),
    ),
    "level": (
        ("cor_3_4", {"dim_max": 2, "coord_bound": 3}),
        ("thm_3_2", {"dim_max": 2, "coord_bound": 3}),
        ("prop_3_1", {"dim_max": 2, "coord_bound": 3}),
    ),
    "cover": (
        ("lemma_2_2", {}),
        ("lemma_3_3", {}),
    ),
}
WORKLOADS = tuple(CAMPAIGNS) + ("mink3d",)

# layers each workload is predicted to exercise; a traced run in which one
# of them records no call means a wrapper missed an import binding
EXPECTED_LAYERS = {
    "slices": (
        "geometry.convex_hull",
        "polytope.lattice_points",
        "polytope.interior_lattice_points",
        "polytope.cayley_slice",
        "polytope.cayley_sum",
        "polytope.minkowski_sum",
        "polytope.dilate",
        "campaigns.verify_theorem",
        "generator.random_lattice_polytope",
    ),
    "level": (
        "geometry.convex_hull",
        "properties.point_set_sum",
        "properties.level_index",
        "properties.level_status",
        "polytope.lattice_points",
        "polytope.interior_lattice_points",
        "polytope.minkowski_sum",
        "polytope.cayley_sum",
        "covering.covers",
        "covering.has_interior_translate_cover",
        "campaigns.verify_theorem",
        "generator.random_lattice_polytope",
    ),
    "cover": (
        "geometry.convex_hull",
        "covering.covers",
        "covering.is_2_convex_normal",
        "covering.has_interior_translate_cover",
        "polytope.lattice_points",
        "polytope.interior_lattice_points",
        "polytope.dilate",
        "campaigns.verify_theorem",
        "generator.random_lattice_polytope",
    ),
    "mink3d": (
        "cli.main",
        "polyfile.load_polytope",
        "polyfile.save_polytope",
        "geometry.convex_hull",
        "polytope.minkowski_sum",
        "polytope.lattice_points",
        "polytope.interior_lattice_points",
        "properties.is_idp",
        "properties.level_status",
        "properties.point_set_sum",
    ),
}

# Item cost is heavy-tailed (a few ms to several seconds), so a short run
# that drew its items at random would see a different mix on every seed.
# Instead the item seeds come from a committed pool whose entries carry their
# cost measured at the baseline: each campaign's pool is cut into STRATA
# equal-count cost strata, a run visits the strata in STRATUM_ORDER (so any
# prefix of the run mixes cheap and dear items alike) and --seed picks the
# entry within each stratum.
POOL_FILE = Path(__file__).with_name("item_pool.json")
STRATA = 64
_BITS = STRATA.bit_length() - 1  # STRATA is a power of two
STRATUM_ORDER = tuple(int(f"{i:0{_BITS}b}"[::-1], 2) for i in range(STRATA))  # bit reversal
ITEMS_PER_RUN = 1024  # a run that gets through all of them starts over

MINK3D_ITEMS = 24  # pairs written at set-up
MINK3D_POINTS = (7, 8)
MINK3D_COORD_BOUND = 2
MINK3D_HORIZON = "4"

DEFAULT_SEED = 0
EXPECTED_FILE = Path(__file__).with_name("expected_mink3d.json")


@dataclass(frozen=True)
class Item:
    workload: str
    index: int
    theorem_id: str | None = None  # campaign items
    trial_seed: int | None = None  # for mink3d, the seed of the polytope pair
    paths: tuple[str, str] | None = None  # mink3d items: the two factor files


def load_pool() -> dict[str, list[list]]:
    """campaign (or "mink3d") -> [[item seed, baseline cost in ms], ...]."""
    return json.loads(POOL_FILE.read_text(encoding="utf-8"))


def stratified_seeds(entries: list[list], rng: random.Random, count: int) -> list[int]:
    """count item seeds, cycling through the cost strata in STRATUM_ORDER."""
    ranked = sorted(entries, key=lambda e: (e[1], e[0]))
    strata = [ranked[len(ranked) * s // STRATA:len(ranked) * (s + 1) // STRATA]
              for s in range(STRATA)]
    return [rng.choice(strata[STRATUM_ORDER[k % STRATA]])[0] for k in range(count)]


def generate(workload: str, seed: int, workdir: Path) -> list[Item]:
    """The run's inputs; the same workload and seed give the same items.

    mink3d writes its factor polytopes into workdir, so file writing counts
    as input generation.
    """
    rng = random.Random(f"{workload}:{seed}")
    pool = load_pool()
    if workload in CAMPAIGNS:
        campaigns = [theorem_id for theorem_id, _ in CAMPAIGNS[workload]]
        per = -(-ITEMS_PER_RUN // len(campaigns))
        seeds = {c: stratified_seeds(pool[c], rng, per) for c in campaigns}
        return [
            Item(workload, k, campaigns[k % len(campaigns)],
                 seeds[campaigns[k % len(campaigns)]][k // len(campaigns)])
            for k in range(ITEMS_PER_RUN)
        ]
    if workload != "mink3d":
        raise ValueError(f"unknown workload {workload!r}")
    return [
        mink3d_item(k, pair_seed, workdir)
        for k, pair_seed in enumerate(stratified_seeds(pool["mink3d"], rng, MINK3D_ITEMS))
    ]


def mink3d_item(index: int, pair_seed: int, workdir: Path) -> Item:
    """Sample the pair of 3-polytopes for pair_seed and write both files."""
    from latcayley import random_lattice_polytope, save_polytope

    pair_rng = random.Random(pair_seed)
    paths = []
    for j, n_points in enumerate(MINK3D_POINTS):
        P = random_lattice_polytope(pair_rng.randrange(2**31), 3, 3, MINK3D_COORD_BOUND, n_points)
        path = workdir / f"pair{index}_{j}.json"
        save_polytope(P, path)
        paths.append(str(path))
    return Item("mink3d", index, trial_seed=pair_seed, paths=tuple(paths))


def _campaign_config(item: Item):
    from latcayley import CampaignConfig

    overrides = dict(CAMPAIGNS[item.workload])[item.theorem_id]
    return CampaignConfig(item.theorem_id, trials=1, seed=item.trial_seed, **overrides)


def _sum_path(item: Item) -> str:
    return item.paths[0].rsplit("_", 1)[0] + "_sum.json"


def run_item(item: Item):
    """Do the item's work and return its raw result; this is what is timed."""
    if item.paths is None:
        from latcayley import verify_theorem

        return verify_theorem(_campaign_config(item))
    from latcayley import cli

    out = _sum_path(item)
    codes, texts = [], []
    for argv in (
        ["construct", "minkowski", *item.paths, "--out", out],
        ["check", out, "--property", "idp", "--format", "json"],
        ["check", out, "--property", "level", "--horizon", MINK3D_HORIZON, "--format", "json"],
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(argv))
        texts.append(buf.getvalue())
    return codes, texts


def outcome(item: Item, raw) -> dict:
    """JSON-able summary of an item's result: what the checks compare."""
    if item.paths is None:
        return {"ok": raw.ok, "trials_run": raw.trials_run, "violations": len(raw.violations)}
    codes, texts = raw
    doc = {"codes": codes}
    for key, text in (("idp", texts[1]), ("level", texts[2])):
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            doc[key] = None
            continue
        doc[key] = {
            "verdict": report["verdict"],
            "witness": report["witness"],
            "degrees_checked": report["degrees_checked"],
        }
    return doc


def check(item: Item, result: dict, expected: dict | None = None) -> list[str]:
    """Errors in an item's outcome; an empty list means the output is right.

    ``expected`` maps item index (as a string) to the outcome recorded for
    the default seed.
    """
    if item.paths is None:
        if result != {"ok": True, "trials_run": 1, "violations": 0}:
            return [f"campaign {item.theorem_id} seed {item.trial_seed}: {result}"]
        return []
    errors = []
    if expected is not None and str(item.index) in expected:
        if expected[str(item.index)] != result:
            errors.append(
                f"item {item.index}: outcome {result} differs from expected "
                f"{expected[str(item.index)]}"
            )
    errors += _check_mink3d(item, result)
    return errors


def _check_mink3d(item: Item, result: dict) -> list[str]:
    """Re-derive the sum and every Fails witness from the primitives."""
    from latcayley import (
        Mode,
        contains,
        dilate,
        interior_lattice_points,
        lattice_points,
        load_polytope,
        point_set_sum,
    )

    if result["codes"][0] != 0 or result.get("idp") is None or result.get("level") is None:
        return [f"item {item.index}: a CLI call failed: {result}"]
    P, Q = (load_polytope(p) for p in item.paths)
    M = load_polytope(_sum_path(item))
    errors = []
    sums = {tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices}
    if not set(M.vertices) <= sums or not all(contains(M.desc, s) for s in sums):
        errors.append(f"item {item.index}: written sum is not conv(P + Q)")
    for key, code_index, holds in (("idp", 1, "Holds"), ("level", 2, "VerifiedUpToHorizon")):
        rep = result[key]
        code = result["codes"][code_index]
        if rep["verdict"] == holds:
            if code != 0:
                errors.append(f"item {item.index}: {key} {holds} with exit code {code}")
            continue
        if rep["verdict"] != "Fails" or code != 1:
            errors.append(f"item {item.index}: {key} verdict {rep['verdict']} exit code {code}")
            continue
        degree, w = rep["witness"][0], tuple(rep["witness"][1])
        if key == "idp":
            lhs = lattice_points(dilate(M, degree))
            rhs = point_set_sum(lattice_points(dilate(M, degree - 1)), lattice_points(M))
            inside = w in set(lhs.points)
        else:
            r = next(t for t in range(1, M.dim + 2) if len(interior_lattice_points(dilate(M, t))))
            if rep["degrees_checked"][0] != r:
                errors.append(f"item {item.index}: level index {rep['degrees_checked'][0]} != {r}")
            lhs = dilate(M, degree)
            inside = contains(lhs.desc, w, Mode.RELATIVE_INTERIOR)
            rhs = point_set_sum(
                interior_lattice_points(dilate(M, r)), lattice_points(dilate(M, degree - r))
            )
        if not inside or w in set(rhs.points):
            errors.append(f"item {item.index}: {key} witness {rep['witness']} does not re-check")
    return errors


def load_expected(workload: str, seed: int) -> dict | None:
    if workload != "mink3d" or seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
