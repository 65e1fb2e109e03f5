"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_latcayley()

import latcayley  # noqa: E402
from latcayley import geometry, polytope  # noqa: E402


def _files(items):
    return [[Path(p).read_text() for p in item.paths] for item in items]


def _run(item):
    return workloads.outcome(item, workloads.run_item(item))


def test_same_seed_same_campaign_inputs_and_outputs():
    a = workloads.generate("slices", 7, Path("unused"))
    b = workloads.generate("slices", 7, Path("unused"))
    assert a == b
    # item 0 comes from the cheapest cost stratum
    assert _run(a[0]) == _run(b[0]) == {"ok": True, "trials_run": 1, "violations": 0}


def test_same_seed_same_mink3d_inputs_and_outputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.generate("mink3d", 7, tmp_path / "a")
    b = workloads.generate("mink3d", 7, tmp_path / "b")
    assert _files(a) == _files(b)
    assert _run(a[0]) == _run(b[0])


def test_different_seeds_differ(tmp_path):
    for workload in workloads.CAMPAIGNS:
        one = [i.trial_seed for i in workloads.generate(workload, 1, tmp_path)]
        two = [i.trial_seed for i in workloads.generate(workload, 2, tmp_path)]
        assert one != two
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    one = workloads.generate("mink3d", 1, tmp_path / "a")
    two = workloads.generate("mink3d", 2, tmp_path / "b")
    assert _files(one) != _files(two)


def test_stratified_seeds_visit_every_stratum_once_per_cycle():
    import random

    entries = [[seed, cost] for seed, cost in zip(range(64), reversed(range(64)))]
    seeds = workloads.stratified_seeds(entries, random.Random(0), workloads.STRATA)
    cost = dict(entries)
    strata = sorted(cost[s] * workloads.STRATA // 64 for s in seeds)
    assert strata == list(range(workloads.STRATA))


def test_self_time_of_synthetic_nested_spans():
    t = tracing.Tracer()
    t.spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["mid", 2.0, 6.0, 0, 0],
        ["leaf", 3.0, 4.0, 1, 0],
        ["mid", 7.0, 9.0, 0, 0],
    ]
    assert dict(t.self_times()) == {"outer": 4.0, "mid": 5.0, "leaf": 1.0}
    assert dict(t.calls()) == {"outer": 1, "mid": 2, "leaf": 1}


def test_self_time_of_wrapped_nested_calls():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: next(ticks))
    leaf = t.wrap("leaf", lambda: None)
    mid = t.wrap("mid", lambda: (leaf(), leaf()))
    t.item = 3
    t.root("outer", mid)
    # ticks: outer 0..7, mid 1..6, leaves 2..3 and 4..5
    assert [s[0] for s in t.spans] == ["outer", "mid", "leaf", "leaf"]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1]
    assert all(s[4] == 3 for s in t.spans)
    assert dict(t.self_times()) == {"outer": 2, "mid": 3, "leaf": 2}


def test_installed_wraps_every_binding_and_restores():
    original = geometry.convex_hull
    t = tracing.Tracer()
    with tracing.Installed(t):
        assert polytope.convex_hull is geometry.convex_hull is latcayley.convex_hull
        assert polytope.convex_hull is not original
        latcayley.from_vertices([(0, 0), (1, 0), (0, 1)])
    assert geometry.convex_hull is polytope.convex_hull is latcayley.convex_hull is original
    assert t.calls()["geometry.convex_hull"] == 1
    assert t.counters["geometry.convex_hull.points_in"] == 3


def test_coverage_guard_flags_a_missing_layer():
    record = {
        "seconds": 1.0,
        "layers": {
            "calls": {"geometry.convex_hull": 5},
            "self_s": {"geometry.convex_hull": 0.5},
            "counters": {},
            "cache": {name: [0, 0] for name in tracing.CACHED},
        },
    }
    metrics, notes = run.per_layer([{"seconds": 1.0}], [record], "slices")
    assert metrics["geometry.convex_hull.self_share"] == (0.5, "ratio")
    guarded = [n for n in notes if n.startswith("coverage guard")]
    assert any("polytope.cayley_slice" in n for n in guarded)
    assert not any("geometry.convex_hull" in n for n in guarded)


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    record = {"seconds": 1.0, "rss_mb": 20.0, "errors": [], "campaign": "lemma_1_1", "layers": {
        "calls": {}, "self_s": {}, "counters": {},
        "cache": {name: [0, 0] for name in tracing.CACHED}}}
    e2e, _ = run.end_to_end([record], 0.1)
    layers, _ = run.per_layer([record], [record], "slices")
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == sorted(
        (name, unit) for name, (_, unit) in layers.items())


def test_stopwatch_scales_to_reference_speed():
    watch = speed.Stopwatch()
    watch.raw_seconds = 2.0
    # the reference work took twice its reference time: the machine ran at
    # half speed, so the block would have taken half as long
    watch.samples = [2 * speed.REFERENCE_S, 3 * speed.REFERENCE_S, 1 * speed.REFERENCE_S]
    assert watch.seconds == pytest.approx(1.0)


def test_stopwatch_samples_inside_the_block_and_restores_sigprof():
    import signal
    import time

    before = signal.getsignal(signal.SIGPROF)
    with speed.Stopwatch() as watch:
        end = time.process_time() + 4 * speed.SAMPLE_EVERY_S
        while time.process_time() < end:
            pass
    assert len(watch.samples) >= 4  # one before, one after, some inside
    assert 0 < watch.raw_seconds
    assert watch.paused == pytest.approx(sum(watch.samples[1:-1]))
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_typical_item_time_is_geometric_mean_of_campaign_medians():
    records = [{"campaign": c, "seconds": t} for c, t in
               [("a", 1.0), ("a", 1.0), ("a", 1.0), ("b", 4.0), ("b", 4.0)]]
    assert run.typical(records) == pytest.approx(2.0, rel=1e-6)


def test_balanced_prefix_has_an_even_count_per_campaign():
    records = [{"campaign": c} for c in ["a", "b", "c"] * 3 + ["a", "b"]]
    assert run.balanced(records) == records[:6]
    assert run.balanced(records[:2]) == records[:2]  # too short to balance


def test_tail_probability_leaves_ten_items_beyond():
    assert run.tail_probability(100) == 0.9
    assert run.tail_probability(40) == 0.75
    assert run.tail_probability(12) == 0.5


def test_harrell_davis_quantile():
    values = [float(x) for x in range(1, 102)]
    assert run.quantile(values, 0.5) == pytest.approx(51.0, rel=1e-3)
    assert run.quantile(list(reversed(values)), 0.5) == pytest.approx(51.0, rel=1e-3)
    assert 89.0 < run.quantile(values, 0.9) < 93.0
    assert run.quantile([3.0, 1.0, 2.0], 1.0) == 3.0
    assert run.quantile([7.0], 0.5) == 7.0
    # one outlier barely moves the estimate
    assert run.quantile(values[:-1] + [1e6], 0.5) < 52.0


@pytest.fixture(scope="module")
def default_mink3d(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("mink3d")
    item = workloads.generate("mink3d", workloads.DEFAULT_SEED, workdir)[0]
    return item, _run(item)


def test_default_seed_matches_expected_file(default_mink3d):
    item, result = default_mink3d
    expected = workloads.load_expected("mink3d", workloads.DEFAULT_SEED)
    assert workloads.check(item, result, expected) == []


@pytest.mark.parametrize("key", ["idp", "level"])
def test_corrupted_expected_verdict_fails(default_mink3d, key):
    item, result = default_mink3d
    expected = json.loads(json.dumps(workloads.load_expected("mink3d", workloads.DEFAULT_SEED)))
    entry = expected[str(item.index)][key]
    entry["verdict"] = "Holds" if entry["verdict"] == "Fails" else "Fails"
    assert workloads.check(item, result, expected)


def test_corrupted_witness_fails_the_recheck(default_mink3d):
    item, result = default_mink3d
    bad = json.loads(json.dumps(result))
    key = "level" if bad["level"]["verdict"] == "Fails" else "idp"
    assert bad[key]["verdict"] == "Fails"
    bad[key]["witness"][1] = [99, 99, 99]
    assert workloads.check(item, bad) != []
