"""Polytope files, the random generator, campaigns, reproduction, and the CLI."""

import ast
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from latcayley import (
    CampaignConfig,
    GeometryError,
    PointSet,
    PolytopeFileError,
    PropertyReport,
    Verdict,
    cayley_sum,
    dilate,
    from_vertices,
    is_idp,
    is_tuple_idp,
    level_index,
    load_polytope,
    minkowski_sum,
    random_lattice_polytope,
    reproduce_example,
    save_polytope,
    verify_theorem,
)
from latcayley import campaigns, polytope, properties, reproduce
from latcayley.campaigns import THEOREM_IDS
from latcayley.cli import CHECKS, build_parser, main
from latcayley.geometry import CELL_BUDGET_ENV
from latcayley.reproduce import EXAMPLE_NAMES

from conftest import FIXTURES, GOLDEN, all_fixture_names, load_fixture, read_json


# ---------------------------------------------------------------------------
# polytope files


def test_save_load_round_trip(tmp_path, reeve):
    path = tmp_path / "r.json"
    save_polytope(reeve, path, name="reeve")
    assert load_polytope(path) == reeve
    doc = read_json(path)
    assert doc["name"] == "reeve"
    assert doc["ambient_dim"] == 3


def test_load_canonicalizes_redundant_vertices(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "ambient_dim": 2,
        "vertices": [[1, 1], [0, 0], [2, 0], [0, 2], [2, 2], [0, 0]],
    }))
    P = load_polytope(path)
    assert P.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))


def test_load_missing_file(tmp_path):
    with pytest.raises(PolytopeFileError, match="file not found"):
        load_polytope(tmp_path / "nope.json")


def test_load_bad_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"ambient_dim": 2,\n  "vertices": [[0, 0], }')
    with pytest.raises(PolytopeFileError, match=r"line 2, column"):
        load_polytope(path)


@pytest.mark.parametrize("doc, fragment", [
    ([1, 2], "expected a JSON object"),
    ({"vertices": [[0]]}, "missing required field"),
    ({"ambient_dim": 0, "vertices": [[0]]}, "positive integer"),
    ({"ambient_dim": 2, "vertices": []}, "nonempty list"),
    ({"ambient_dim": 2, "vertices": [[0]]}, "vertex 0"),
    ({"ambient_dim": 1, "vertices": [[0], [1.5]]}, "vertex 1, coordinate 0"),
    ({"ambient_dim": 1, "vertices": [[True]]}, "non-integer"),
    ({"ambient_dim": 1, "vertices": [[0]], "name": 3}, "name must be a string"),
    ({"ambient_dim": True, "vertices": [[0]]}, "positive integer"),
])
def test_load_rejects_malformed_documents(tmp_path, doc, fragment):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PolytopeFileError, match=fragment):
        load_polytope(path)


def test_fixture_corpus_loads():
    names = sorted(p.stem for p in FIXTURES.glob("*.json"))
    assert len(names) >= 12
    for name in names:
        P = load_fixture(name)
        assert P.vertices


# ---------------------------------------------------------------------------
# random generator


def test_generator_is_deterministic():
    a = random_lattice_polytope(42, 3, 2, coord_bound=5)
    b = random_lattice_polytope(42, 3, 2, coord_bound=5)
    assert a == b
    assert a.ambient_dim == 3
    assert a.dim == 2


def test_generator_respects_bounds_and_padding():
    P = random_lattice_polytope(7, 4, 2, coord_bound=3)
    for v in P.vertices:
        assert all(abs(x) <= 3 for x in v[:2])
        assert v[2:] == (0, 0)


def test_generator_seed_changes_output():
    polys = {random_lattice_polytope(s, 2, 2, coord_bound=4) for s in range(8)}
    assert len(polys) > 1


def test_generator_validation():
    with pytest.raises(GeometryError):
        random_lattice_polytope(0, 2, 3)
    with pytest.raises(GeometryError):
        random_lattice_polytope(0, 2, 2, n_points=2)


# ---------------------------------------------------------------------------
# campaigns


def test_unknown_theorem_id_lists_valid_ids():
    with pytest.raises(GeometryError, match="bn_gorenstein.*thm_3_2"):
        verify_theorem(CampaignConfig("thm_nope", trials=1, seed=0))


def test_campaign_config_validation():
    with pytest.raises(GeometryError):
        CampaignConfig("thm_0_1", trials=0, seed=0)
    with pytest.raises(GeometryError):
        CampaignConfig("thm_0_1", trials=1, seed=0, dim_max=5)
    with pytest.raises(GeometryError):
        CampaignConfig("thm_0_1", trials=1, seed=0, dim_max=4)
    with pytest.raises(GeometryError):
        CampaignConfig("thm_0_1", trials=1, seed=0, coord_bound=0)
    # a non-integer or bool field is refused here, not deep in a runner
    for field, value in [("trials", 2.5), ("trials", True), ("coord_bound", 1.5), ("seed", "0"), ("dilation_bound", False)]:
        with pytest.raises(GeometryError, match=field):
            CampaignConfig("thm_0_1", **{"trials": 1, "seed": 0, field: value})


def test_campaigns_are_deterministic():
    cfg = CampaignConfig("thm_2_1", trials=3, seed=11, dim_max=2, coord_bound=3)
    assert verify_theorem(cfg).to_dict() == verify_theorem(cfg).to_dict()


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_campaign_smoke(theorem_id):
    cfg = CampaignConfig(
        theorem_id, trials=2, seed=0, dim_max=2, coord_bound=3, dilation_bound=2
    )
    rep = verify_theorem(cfg)
    assert rep.trials_run == 2
    assert rep.ok, rep.violations
    doc = rep.to_dict()
    assert doc["theorem_id"] == theorem_id
    assert doc["config"]["seed"] == 0


# the campaigns that check a quantifier over an unbounded set on a finite box;
# every level campaign scans to d+1 and thm_0_4_equiv to heights summing to
# max(2, dim C - 1), where their quantifiers are complete
TRUNCATED = {"lemma_1_1": "bounded total", "lemma_1_2": "bounded total"}


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_quantifier_truncations_are_noted(theorem_id):
    cfg = CampaignConfig(theorem_id, trials=1, seed=0, dim_max=2, coord_bound=2)
    notes = verify_theorem(cfg).notes
    if theorem_id in TRUNCATED:
        assert len(notes) == 1 and TRUNCATED[theorem_id] in notes[0]
    else:
        assert notes == ()


def _stand_in(name, passes=None, index=None):
    """A stand-in for the decider ``campaigns.<name>``: it refutes its input,
    with the input's vertex lists as the witness, unless ``passes`` maps the
    input's ambient dimension to a passing verdict; its report checks the
    degrees from ``index`` to the horizon when an index is given.  With no
    horizon passed, a level stand-in takes the level deciders' default, d+1."""
    def decide(P, *horizon):
        Ps = P if isinstance(P, list) else [P]
        if horizon:
            h = horizon[0]
        else:
            h = P.dim + 1 if name in ("level_status", "is_gorenstein") else None
        degrees = None if index is None else (index, h)
        verdict = (passes or {}).get(Ps[0].ambient_dim, Verdict.FAILS)
        witness = tuple(Q.vertices for Q in Ps) if verdict is Verdict.FAILS else None
        return PropertyReport(name, verdict, witness, degrees, h)
    return decide


def _campaign_stand_ins(theorem_id) -> dict:
    """Stand-ins under which every trial of a campaign records a violation.

    The deciders ``_collect`` certifies its draws with stay real, so each
    trial draws exactly what the real campaign draws.  Polygon factors and
    their Minkowski sums lie in ambient dimension 2, the Cayley sum of two
    of them in dimension 4.
    """
    level = {"level_status": _stand_in("level_status", index=7)}
    return {
        "thm_0_1": {"is_idp": _stand_in("is_idp"), **level},
        "lemma_1_1": {"cayley_slice": lambda C, a, mode: PointSet(C.ambient_dim, ())},
        "lemma_1_2": {"cayley_slice": lambda C, a, mode: PointSet(C.ambient_dim, ((-1,) * C.ambient_dim,))},
        "thm_0_4_equiv": {"is_idp": _stand_in("is_idp", passes={4: Verdict.HOLDS})},
        "thm_2_1": {"is_idp": _stand_in("is_idp")},
        "lemma_2_2": {"is_2_convex_normal": _stand_in("is_2_convex_normal")},
        "cor_2_3": {"is_idp": _stand_in("is_idp")},
        "prop_3_1": {"level_status": _stand_in("level_status")},
        "thm_3_2": level,
        "lemma_3_3": {"has_interior_translate_cover": _stand_in("has_interior_translate_cover")},
        "cor_3_4": level,
        "bn_gorenstein": {
            "is_gorenstein": _stand_in("is_gorenstein", passes={2: Verdict.VERIFIED_UP_TO_HORIZON}, index=1),
        },
        "hnp_polygon_pair": {"is_tuple_idp": _stand_in("is_tuple_idp")},
    }[theorem_id]


# campaign_violations(id) for every id in THEOREM_IDS, one record a line
CAMPAIGN_VIOLATIONS = Path(__file__).resolve().parent / "campaign_violations.json"


def campaign_violations(theorem_id, monkeypatch) -> list:
    """The violation records of a short campaign whose conclusions all fail."""
    for name, fake in _campaign_stand_ins(theorem_id).items():
        monkeypatch.setattr(campaigns, name, fake)
    cfg = CampaignConfig(theorem_id, trials=3, seed=3, dim_max=2, coord_bound=3, dilation_bound=2)
    return verify_theorem(cfg).to_dict()["violations"]


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_campaign_violation_records_are_pinned(theorem_id, monkeypatch):
    # pins each runner's RNG order, trial inputs, notes and reports
    expected = read_json(CAMPAIGN_VIOLATIONS)[theorem_id]
    assert expected, "every campaign's stand-ins must produce a violation"
    assert campaign_violations(theorem_id, monkeypatch) == expected


def campaign_pair(trial):
    """The two polygons trial ``trial`` of thm_0_4_equiv at seed 0 draws."""
    rng = random.Random(trial)
    config = CampaignConfig("thm_0_4_equiv", trials=1, seed=0)
    return [campaigns._poly2(rng, config) for _ in range(2)]


def test_poly2_hulls_each_draw_once(monkeypatch):
    # the shear maps the drawn polytope's description: every hull of a draw is
    # made inside random_lattice_polytope (one per sample it tries)
    hulls, inside = [0], [0]
    draw, hull = campaigns.random_lattice_polytope, polytope.convex_hull

    def counting_hull(points):
        hulls[0] += 1
        return hull(points)

    def counting_draw(*args):
        before = hulls[0]
        P = draw(*args)
        inside[0] += hulls[0] - before
        return P

    monkeypatch.setattr(polytope, "convex_hull", counting_hull)
    monkeypatch.setattr(campaigns, "random_lattice_polytope", counting_draw)
    rng = random.Random(5)
    config = CampaignConfig("lemma_1_1", trials=1, seed=0)
    draws = [campaigns._poly2(rng, config) for _ in range(40)]
    assert {P.dim for P in draws} == {1, 2}
    assert hulls[0] == inside[0] >= len(draws)


def _sheared(points, a, b, shift=(0, 0)):
    tx, ty = shift
    return [(x + a * y + tx, b * (x + a * y) + y + ty) for x, y in points]


def test_shear_image_equals_the_rehull():
    # the mapped description, field by field, against a hull of the mapped vertices
    fields = ("ambient_dim", "dim", "vertices", "facets", "equalities")
    for dim, seed in product((0, 1, 2), range(3)):
        P = random_lattice_polytope(seed, 2, dim, 3, dim + 2 + seed)
        assert P.dim == dim
        for a, b, tx, ty in product(range(-3, 4), range(-3, 4), range(-1, 2), range(-1, 2)):
            image = campaigns._shear(P, a, b, (tx, ty)).desc
            hull = from_vertices(_sheared(P.vertices, a, b, (tx, ty))).desc
            assert [getattr(image, f) for f in fields] == [getattr(hull, f) for f in fields], (P, a, b, tx, ty)
    for seed in range(20):  # the Gorenstein pair, drawn with its own a, b
        a, b = (rng := random.Random(seed)).randint(-1, 1), rng.randint(-1, 1)
        expected = [from_vertices(_sheared(seg, a, b)) for seg in ([(-1, 0), (1, 0)], [(0, -1), (0, 1)])]
        assert campaigns._gorenstein_pair(random.Random(seed)) == expected


def test_factor_criterion_is_cayley_idp():
    # the 100 polygon pairs of trials 0-99; two pairs of 3-polytopes in R^3,
    # whose Cayley sums have dimension 4, so N = 3, the second with IDP factors
    # and a Cayley sum that is not IDP; and the ex24 segment pair, whose
    # Cayley sum is not IDP
    space = [[random_lattice_polytope(s, 3, 3, 1), random_lattice_polytope(s + 1000, 3, 3, 1)] for s in (0, 1)]
    ex24 = [load_fixture("ex24_p1"), load_fixture("ex24_p2")]
    assert [cayley_sum(Ps).dim for Ps in space] == [4, 4]
    verdicts = []
    for Ps in [campaign_pair(k) for k in range(100)] + space + [ex24]:
        C = cayley_sum(Ps)
        criterion = campaigns._factor_criterion(Ps, max(2, C.dim - 1))
        assert criterion == (is_idp(C).verdict is Verdict.HOLDS), Ps
        verdicts.append(criterion)
    assert verdicts[-3:] == [True, False, False] and 0 < sum(verdicts[:100]) < 100


def test_factor_criterion_checks_at_most_five_tuples_for_two_polygons(monkeypatch):
    # two polygons have a Cayley sum of dimension <= 3, so N = 2 and the
    # height vectors are (0, 1), (0, 2), (1, 0), (1, 1) and (2, 0)
    calls = []

    def counting(Ps):
        calls.append(Ps)
        return is_tuple_idp(Ps)

    monkeypatch.setattr(campaigns, "is_tuple_idp", counting)
    config = CampaignConfig("thm_0_4_equiv", trials=1, seed=0, dilation_bound=2)
    for trial in range(20):
        calls.clear()
        campaigns._run_thm_0_4_equiv(random.Random(trial), config, trial, [])
        assert len(calls) <= 5


# polytopes checked for levelness: by one trial at seed 0, the two sums of
# cor_3_4 and bn_gorenstein and the one interior-cover polygon of prop_3_1;
# by the example_1_9 reproduction at params (3, 1), its two sums
LEVEL_CHECKS = {"cor_3_4": 2, "prop_3_1": 1, "bn_gorenstein": 2, "example_1_9": 2}


@pytest.mark.parametrize("case", LEVEL_CHECKS)
def test_level_checks_compute_each_level_index_once(case, monkeypatch):
    # each checked polytope's index and scan come from one level_status call,
    # which computes its level index once; campaigns and reproduce are patched
    # too, so a call through a binding of their own would also count
    calls = []

    def counting(P):
        calls.append(P)
        return level_index(P)

    for module in (properties, campaigns, reproduce):
        monkeypatch.setattr(module, "level_index", counting, raising=module is properties)
    if case in EXAMPLE_NAMES:
        assert reproduce_example(case, (3, 1)).ok
    else:
        assert verify_theorem(CampaignConfig(case, trials=1, seed=0)).ok
    assert len(calls) == len(set(calls)) == LEVEL_CHECKS[case]


# ---------------------------------------------------------------------------
# counterexample reproduction


def test_reproduce_names_and_validation():
    assert set(EXAMPLE_NAMES) == {"example_1_9", "example_2_4"}
    with pytest.raises(GeometryError, match="example_1_9"):
        reproduce_example("example_9_1")
    for params in [(0, 1), (1,), (1, 1, 1), (1.5, 1), (True, 1)]:
        with pytest.raises(GeometryError):
            reproduce_example("example_2_4", params)


def test_reproduce_pair_idp_split_default():
    rep = reproduce_example("example_2_4")
    assert rep.ok
    assert any("tuple" in n for n in rep.notes)


def test_reproduce_level_failure_family():
    rep = reproduce_example("example_1_9", (3, 1))
    assert rep.ok
    assert any("fails at degree 3" in n for n in rep.notes)
    # primitive second segment: the sum stays level, and the report says why
    rep2 = reproduce_example("example_1_9", (2, 3))
    assert not rep2.ok
    assert any("primitive" in v.note for v in rep2.violations)


# ---------------------------------------------------------------------------
# command line


def fixture_arg(name):
    return str(FIXTURES / f"{name}.json")


def test_cli_check_exit_codes(capsys):
    assert main(["check", "--property", "idp", fixture_arg("unit_square")]) == 0
    out = capsys.readouterr().out
    assert "verdict: Holds" in out
    assert main(["check", "--property", "level", fixture_arg("ex19_cayley")]) == 1
    out = capsys.readouterr().out
    assert "verdict: Fails" in out
    assert "witness" in out


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["check", "--property", "idp", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    # dilate takes exactly one input polytope
    assert main([
        "construct", "dilate", fixture_arg("unit_square"), fixture_arg("segment"),
        "--factor", "2", "--out", str(tmp_path / "o.json"),
    ]) == 2
    capsys.readouterr()
    square, segment, out = fixture_arg("unit_square"), fixture_arg("segment"), str(tmp_path / "o.json")
    for argv, message in [
        (["check", "--property", "idp", square, segment], "takes exactly one polytope file"),
        (["construct", "dilate", square, "--out", out], "dilate needs --factor"),
        (["construct", "minkowski", square, "--out", out], "minkowski needs at least two"),
        (["construct", "minkowski", square, segment, "--factor", "3", "--out", out], "minkowski takes no --factor"),
        (["construct", "cayley", square, segment, "--factor", "3", "--out", out], "cayley takes no --factor"),
    ]:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", ["directory", "not-utf8", "check-out", "construct-out"])
def test_cli_file_errors_exit_2(case, tmp_path, capsys):
    # exit 1 means "Fails", so an unreadable input or unwritable report must
    # not surface as a traceback
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"ambient_dim": 1, "vertices": [[0]], "name": "\xe9"}')
    unwritable = str(tmp_path / "no-such-dir" / "out.json")
    square = fixture_arg("unit_square")
    argv = {
        "directory": ["check", "--property", "idp", str(FIXTURES)],
        "not-utf8": ["check", "--property", "idp", str(latin1)],
        "check-out": ["check", "--property", "idp", square, "--out", unwritable],
        "construct-out": ["construct", "dilate", square, "--factor", "2", "--out", unwritable],
    }[case]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("prop", list(CHECKS))
def test_cli_check_witness_exactly_on_failure(prop, tmp_path, capsys):
    # the fixtures plus one polytope whose edges are all long enough for the
    # edge criterion, so every property meets both outcomes
    long_edges = tmp_path / "simplex_2d_x12.json"
    save_polytope(dilate(load_fixture("simplex_2d"), 12), long_edges)
    inputs = [[fixture_arg(name)] for name in all_fixture_names()] + [[str(long_edges)]]
    if CHECKS[prop][0] is None:
        inputs += [[fixture_arg(f"{ex}_p1"), fixture_arg(f"{ex}_p2")] for ex in ("ex19", "ex24")]
    failures = 0
    for paths in inputs:
        code = main(["check", *paths, "--property", prop, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        failed = doc["verdict"] in ("Fails", "not-covered")
        failures += failed
        assert doc["property"] == prop
        assert (doc["witness"] is not None) == failed, (paths, doc)
        assert code == (1 if failed else 0), (paths, doc)
    assert 0 < failures < len(inputs)


@pytest.mark.parametrize("prop, witness", [
    ("gorenstein", "witness: (1, (2,))"),
    ("edge-criterion", "witness: (3, ((0,), (3,)))"),
])
def test_cli_text_witness_keeps_one_tuples(prop, witness, capsys):
    assert main(["check", "--property", prop, fixture_arg("segment")]) == 1
    assert witness in capsys.readouterr().out.splitlines()


def test_cli_check_json_format(capsys):
    assert main([
        "check", "--property", "idp", fixture_arg("unit_square"), "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Holds"
    assert doc["degrees_checked"] == [2, 2]


@pytest.mark.parametrize("operation", ["minkowski", "cayley"])
def test_cli_construct_minkowski(operation, tmp_path, capsys):
    out = tmp_path / "sum.json"
    code = main([
        "construct", operation,
        fixture_arg("ex19_p1"), fixture_arg("ex19_p2"),
        "--out", str(out), "--name", "sum",
    ])
    assert code == 0
    combine = {"minkowski": minkowski_sum, "cayley": cayley_sum}[operation]
    expected = combine([load_fixture("ex19_p1"), load_fixture("ex19_p2")])
    assert load_polytope(out) == expected == load_fixture(f"ex19_{operation}")
    assert read_json(out)["name"] == "sum"


def test_cli_construct_dilate(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main([
        "construct", "dilate", fixture_arg("unit_square"),
        "--factor", "3", "--out", str(out),
    ]) == 0
    assert load_polytope(out) == dilate(load_fixture("unit_square"), 3)


def test_cli_random_is_deterministic(tmp_path, capsys):
    args = ["random", "--seed", "5", "--ambient-dim", "2", "--dim", "2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert load_polytope(a) == load_polytope(b)
    assert load_polytope(a) == random_lattice_polytope(5, 2, 2)


def test_cli_check_exits_2_past_enumeration_budget(monkeypatch, capsys, cold_enumeration_cache):
    monkeypatch.setenv(CELL_BUDGET_ENV, "10")
    assert main(["check", fixture_arg("unit_cube"), "--property", "idp"]) == 2
    err = capsys.readouterr().err
    assert CELL_BUDGET_ENV in err and "enumeration" in err


@pytest.mark.parametrize("command", ["check", "construct"])
def test_cli_exits_2_past_hull_budget(monkeypatch, capsys, tmp_path, command):
    # each square loads under the budget of 8; their sum has 9 hull candidates
    square = fixture_arg("unit_square")
    argv = {
        "check": ["check", square, square, "--property", "tuple-idp"],
        "construct": ["construct", "minkowski", square, square, "--out", str(tmp_path / "s.json")],
    }[command]
    monkeypatch.setenv(CELL_BUDGET_ENV, "8")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "convex hull" in err and CELL_BUDGET_ENV in err


def test_cli_idp_refuses_max_degree_below_2(capsys):
    # reeve_4 fails IDP at degree 2, so a range ending at 1 certifies nothing
    argv = ["check", fixture_arg("reeve_4"), "--property", "idp"]
    assert main(argv + ["--max-degree", "1"]) == 2
    assert "max_degree" in capsys.readouterr().err
    assert main(argv + ["--max-degree", "2"]) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_idp_below_the_certificate_degree_states_its_horizon(fmt, tmp_path, capsys):
    # the 4-cube is IDP, but only degrees up to 3 certify it
    path = tmp_path / "cube4.json"
    path.write_text(json.dumps({"ambient_dim": 4, "vertices": list(product((0, 1), repeat=4))}))
    argv = ["check", str(path), "--property", "idp", "--max-degree", "2", "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        doc = json.loads(out)
        assert doc["verdict"] == "VerifiedUpToHorizon"
        assert (doc["degrees_checked"], doc["horizon"]) == ([2, 2], 2)
    else:
        lines = set(out.splitlines())
        assert {"verdict: VerifiedUpToHorizon", "degrees checked: 2..2", "horizon: 2"} <= lines


@pytest.mark.parametrize(
    "prop, flag",
    [(p, f) for p, (_, bound, _) in CHECKS.items() for f in ("max_degree", "horizon") if f != bound],
)
def test_cli_check_refuses_a_bound_its_property_does_not_take(prop, flag, capsys):
    # a bound given to the wrong property would be dropped while the report's
    # config still records it
    pair = [fixture_arg("ex19_p1"), fixture_arg("ex19_p2")]
    paths = pair if prop == "tuple-idp" else [fixture_arg("unit_square")]
    option = "--" + flag.replace("_", "-")
    assert main(["check", *paths, "--property", prop, option, "3"]) == 2
    assert option in capsys.readouterr().err


def test_random_rejects_negative_coord_bound(tmp_path, capsys):
    with pytest.raises(GeometryError):
        random_lattice_polytope(0, 2, 2, coord_bound=-1)
    out = tmp_path / "x.json"
    args = ["random", "--seed", "0", "--ambient-dim", "2", "--dim", "2", "--coord-bound", "-1"]
    assert main(args + ["--out", str(out)]) == 2
    assert "coord_bound" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_and_reproduce_exit_codes(capsys):
    assert main([
        "verify", "thm_0_1", "--trials", "2", "--seed", "0",
        "--dim-max", "2", "--coord-bound", "2", "--dilation-bound", "2",
    ]) == 0
    assert "violations: 0" in capsys.readouterr().out
    assert main(["reproduce", "example_1_9", "--params", "3", "1"]) == 0
    assert main(["reproduce", "example_1_9", "--params", "1", "2"]) == 1
    assert "primitive" in capsys.readouterr().out


def test_cli_verify_defaults_are_the_campaign_defaults():
    args = build_parser().parse_args(["verify", "thm_0_1"])
    flags = ("trials", "seed", "dim_max", "coord_bound", "dilation_bound")
    config = CampaignConfig(args.theorem_id, **{f: getattr(args, f) for f in flags})
    assert config == CampaignConfig("thm_0_1", trials=10, seed=0)


def test_cli_verify_takes_no_horizon(capsys):
    # every level campaign scans to d+1, where its quantifier is complete
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm_0_1", "--horizon", "3"])
    assert exc.value.code == 2
    assert "--horizon" in capsys.readouterr().err


def without_timestamp(doc):
    return {k: v for k, v in doc.items() if k != "timestamp"}


SCRIPTS = FIXTURES.parent / "scripts"


def load_script(name: str):
    """Import scripts/<name>.py by path; its ``__main__`` block does not run."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_every_script_imports(name):
    # a script importing a name the library no longer has fails here
    assert load_script(name).__doc__


# the covering sections of scripts/output_digest.py: 1000 seeded queries in
# ambient dimensions 1-3 and the 4-D dilates and queries; a change to any
# covering verdict or witness fails here
COVERING_DIGESTS = {
    "covers": "1117eca7ca3cd67ed13279d7ee770fb762e9711dc95d894677ee3c073d289521",
    "covers4d": "fb58119a1750d1b9e6513e4b7c878d6ee72d8bf59dc2e777896f193e5e8897c1",
}


@pytest.mark.parametrize("section", sorted(COVERING_DIGESTS))
def test_covering_output_digests_are_pinned(section):
    od = load_script("output_digest")
    assert od.digest(getattr(od, section)) == COVERING_DIGESTS[section]


@pytest.mark.parametrize("golden_name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_cli_reports_match_golden(tmp_path, monkeypatch, capsys, golden_name):
    mg = load_script("make_golden")
    monkeypatch.chdir(FIXTURES.parent)
    out = tmp_path / "report.json"
    main(mg.CASES[golden_name] + ["--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert without_timestamp(read_json(out)) == without_timestamp(
        read_json(GOLDEN / golden_name)
    )


def test_goldens_cover_every_check_property():
    cases = load_script("make_golden").CASES.values()
    pinned = {argv[argv.index("--property") + 1] for argv in cases if argv[0] == "check"}
    assert pinned == set(CHECKS)


def test_cli_report_deterministic_apart_from_timestamp(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["check", "--property", "gorenstein", fixture_arg("unit_square")]
    main(argv + ["--out", str(a)])
    capsys.readouterr()
    main(argv + ["--out", str(b), "--format", "json"])
    assert capsys.readouterr().out == b.read_text(encoding="utf-8")
    assert without_timestamp(read_json(a)) == without_timestamp(read_json(b))


def test_cli_report_timestamp_is_utc_seconds(tmp_path, capsys):
    from datetime import datetime

    out = tmp_path / "report.json"
    main(["check", "--property", "idp", fixture_arg("unit_square"), "--out", str(out)])
    capsys.readouterr()
    stamp = read_json(out)["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp
    when = datetime.fromisoformat(stamp)
    assert when.utcoffset().total_seconds() == 0
    assert abs(when.timestamp() - time.time()) < 5


# ---------------------------------------------------------------------------
# packaging


def test_library_imports_only_the_standard_library():
    # the package declares no runtime dependency, so every absolute import in
    # its sources must resolve to a standard library module
    src = FIXTURES.parent / "src" / "latcayley"
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno}: {n}"
                for n in names
                if n.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_cli_import_leaves_datetime_unloaded():
    # the CLI formats its one timestamp with ``time``; importing ``datetime``
    # cost every latcayley process a few milliseconds of start-up
    src = str(FIXTURES.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import latcayley.cli, sys; print('datetime' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


def test_no_unused_imports():
    # every name imported by a library or test module is used there; names
    # re-exported through __all__ and ``from __future__ import annotations``
    # count as used
    root = FIXTURES.parent
    unused = []
    for path in sorted([*(root / "src" / "latcayley").glob("*.py"), *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        used = {"annotations"}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(e.value for e in node.value.elts)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_private_names_cross_modules_only_from_geometry():
    # a library module imports another's _-prefixed name only for the two
    # face helpers geometry shares with polytope and covering
    allowed = {("geometry", "_piece_edges"), ("geometry", "_tight_masks")}
    crossing = [
        f"{path.name}:{node.lineno}: {node.module}.{a.name}"
        for path in sorted((FIXTURES.parent / "src" / "latcayley").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
        and (node.module, a.name) not in allowed
    ]
    assert crossing == []


def test_every_library_definition_is_used():
    # every function, class and method defined in the library (dunders aside)
    # is named somewhere in the library outside its own body, or exported
    # through __all__; test-only helpers live in tests/conftest.py
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((FIXTURES.parent / "src" / "latcayley").glob("*.py"))}

    def names(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))

    named = sum((names(tree) for tree in trees.values()), Counter())
    exported = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exported.update(e.value for e in node.value.elts)
    unused = [
        f"{file}:{node.lineno}: {node.name}"
        for file, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exported
        and named[node.name] == names(node)[node.name]
    ]
    assert unused == []
