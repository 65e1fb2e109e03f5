#!/usr/bin/env python3
"""latcayley benchmark: seeded workloads timed through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload slices --seed 1 --seconds 25 --trace 0

Workloads are ``slices``, ``level``, ``cover`` and ``mink3d`` (see
perfbench/README.md).  The run imports latcayley from ``src/`` of the
checkout, generates the seed's items, then runs items one after another
until their times add up to ``--seconds``.  Each item runs in a forked
child, so it starts with cold caches and its peak RSS is its own; only the
call itself is timed, and its output is checked afterwards in the same
child.  Every time is scaled to a reference machine speed (speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every item
twice, untraced and traced, and prints the per-layer metrics.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output was
right (and, traced, every predicted layer was reached).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
WALL_LIMIT = 1.2  # a run ends after this many times --seconds of wall time at the latest
ITEM_TIMEOUT_S = 60  # a child still running after this is killed and counted failed
TAIL_BEYOND = 10  # the tail percentile leaves at least this many items above it


def import_latcayley():
    """Import latcayley from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import latcayley

    if Path(latcayley.__file__).resolve().parent != src / "latcayley":
        raise ImportError(f"latcayley imported from {latcayley.__file__}, not {src}")
    return latcayley


@contextlib.contextmanager
def workspace(name: str, base: Path = ROOT / ".perfbench_work"):
    """A scratch directory inside the checkout, removed afterwards."""
    workdir = base / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def setup(workload: str, seed: int, workdir: Path) -> tuple[list, float]:
    """Import plus input generation, timed at reference speed."""
    with speed.Stopwatch() as watch:
        import_latcayley()
        items = workloads.generate(workload, seed, workdir)
    return items, watch.seconds


def setup_probe(workload: str, seed: int) -> float:
    """Time set-up again in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=30, check=True,
    )
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# one item in a forked child


def _child(item, traced: bool, expected) -> dict:
    import latcayley

    latcayley.lattice_points.cache_clear()
    latcayley.interior_lattice_points.cache_clear()
    doc: dict = {"errors": []}
    tracer = tracing.Tracer()
    tracer.item = item.index
    raw = None
    watch = speed.Stopwatch()
    try:
        if traced:
            with tracing.Installed(tracer), watch:
                raw = tracer.root("item", workloads.run_item, item)
        else:
            with watch:
                raw = workloads.run_item(item)
    except Exception:
        doc["errors"].append(traceback.format_exc())
    doc["seconds"] = watch.seconds
    doc["raw_seconds"] = watch.raw_seconds
    if traced:
        doc["layers"] = {
            "calls": tracer.calls(),
            "self_s": tracer.self_times(),
            "counters": dict(tracer.counters),
            "cache": {
                name: getattr(latcayley, name.split(".")[1]).cache_info()[:2]
                for name in tracing.CACHED
            },
        }
    if raw is not None:
        doc["outcome"] = workloads.outcome(item, raw)
        doc["errors"] += workloads.check(item, doc["outcome"], expected)
    return doc


def execute(item, traced: bool, expected) -> dict:
    """Run one item in a forked child; adds its peak RSS in MiB."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            os.close(rfd)
            signal.alarm(ITEM_TIMEOUT_S)
            payload = json.dumps(_child(item, traced, expected))
            with os.fdopen(wfd, "w") as f:
                f.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd) as f:
        payload = f.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not payload:
        doc = {"seconds": 0.0, "errors": [f"item {item.index}: child exit status {status}"]}
    else:
        doc = json.loads(payload)
    doc["rss_mb"] = usage.ru_maxrss / 1024  # Linux reports KiB
    doc["campaign"] = item.theorem_id or item.workload
    return doc


# ---------------------------------------------------------------------------
# metrics


def tail_probability(n: int) -> float:
    """The highest percentile with TAIL_BEYOND of n items beyond it, but not
    below the median: with 20 items or fewer the tail is the median."""
    return max(0.5, (n - TAIL_BEYOND) / n)


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, weighted by a Beta(q(n+1),
    (1-q)(n+1)) distribution over the ranks.  Item costs are heavy-tailed and
    mix campaigns of different scales, so a single order statistic jumps
    between runs; this estimate does not.  q = 1 gives the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if q >= 1.0 or n == 1:
        return ordered[-1]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    per = max(50, 5000 // n)  # midpoint-rule cells over each rank's interval ((i-1)/n, i/n]
    steps = n * per
    mass = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        mass[k // per] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
    total = sum(mass)
    return sum(m * v for m, v in zip(mass, ordered)) / total


def typical(records: list[dict]) -> float:
    """Geometric mean over the workload's campaigns of each one's median
    item seconds.

    The campaigns of a workload differ in cost by 10-100x, so the median of
    the pooled items falls into the gap between them and moved by 30%
    between seeds; each campaign's own median does not.
    """
    by_campaign: dict[str, list[float]] = {}
    for r in records:
        by_campaign.setdefault(r["campaign"], []).append(r["seconds"])
    logs = [math.log(quantile(v, 0.5)) for v in by_campaign.values()]
    return math.exp(sum(logs) / len(logs))


def balanced(records: list[dict]) -> list[dict]:
    """The longest prefix of the run with an even number of items from each
    campaign.

    The campaigns take turns, and each one's stratum order alternates
    between the cheaper and the dearer half of its pool, so such a prefix
    holds as many items from each half.  Where a run ends then no longer
    tilts the mix: without this, a run that ended just after a few cheap
    items read 10-15% more items per second.
    """
    period = 2 * len({r["campaign"] for r in records})
    return records[:len(records) // period * period] or records


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, list[str]]:
    """Throughput, item latency and memory over the balanced prefix of the
    untraced items.

    peak_rss_mb is the peak RSS of one item's process, at the same tail
    percentile as item_tail_ms: the maximum over a run would hang on the one
    dearest item the run happened to draw.
    """
    failed = sum(1 for r in records if r["errors"])
    errors_note = f"error_rate {failed / len(records):.4f} ({failed} of {len(records)} items)"
    records = balanced(records)
    seconds = [r["seconds"] for r in records]
    q_tail = tail_probability(len(records))
    metrics = {
        "items_per_s": (len(records) / sum(seconds), "1/s"),
        "item_p50_ms": (typical(records) * 1000, "ms"),
        "item_tail_ms": (quantile(seconds, q_tail) * 1000, "ms"),
        "peak_rss_mb": (quantile([r["rss_mb"] for r in records], q_tail), "MiB"),
        "setup_s": (setup_s, "s"),
    }
    raw = [r.get("raw_seconds", r["seconds"]) for r in records]
    notes = [
        f"metrics are over the first {len(records)} items; "
        f"item_tail_ms and peak_rss_mb are p{100 * q_tail:.1f}",
        errors_note,
        f"unscaled: items_per_s {len(raw) / sum(raw):.6f}, item_tail_ms "
        f"{quantile(raw, q_tail) * 1000:.6f}; the machine ran at "
        f"{sum(seconds) / sum(raw):.3f}x reference speed",
    ]
    return metrics, notes


def per_layer(untraced: list[dict], traced: list[dict], workload: str) -> tuple[dict, list[str]]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    cache: dict[str, list[int]] = {name: [0, 0] for name in tracing.CACHED}
    for r in traced:
        layers = r.get("layers")
        if layers is None:
            continue
        for name, n in layers["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in layers["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, n in layers["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, (hits, misses) in layers["cache"].items():
            cache[name][0] += hits
            cache[name][1] += misses
    traced_s = sum(r["seconds"] for r in traced)
    untraced_s = sum(r["seconds"] for r in untraced)
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in tracing.LAYERS:
        metrics[f"{name}.self_share"] = (self_s.get(name, 0.0) / traced_s, "ratio")
    for name in tracing.COUNT_METRICS:
        metrics[name] = (counters.get(name, 0), "count")
    pairs = counters.get("properties.point_set_sum.pairs", 0)
    out = counters.get("properties.point_set_sum.points_out", 0)
    metrics["properties.point_set_sum.yield"] = (out / pairs if pairs else 0.0, "ratio")
    for name, (hits, misses) in cache.items():
        metrics[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    missing = [n for n in workloads.EXPECTED_LAYERS[workload] if not calls.get(n)]
    notes = [f"coverage guard: layer {n} recorded no call on {workload}" for n in missing]
    ranked = sorted(tracing.LAYERS, key=lambda n: -self_s.get(n, 0.0))[:3]
    notes.append("largest self time: " + ", ".join(f"{n} {self_s.get(n, 0.0):.3f}s" for n in ranked))
    return metrics, notes


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure(workload: str, seed: int, items: list, expected, seconds: float, traced: bool):
    """Run items, each untraced (and then traced), until their times at
    reference speed add up to seconds.

    Counting reference-speed time, not wall time, makes how many items a run
    reaches, and so which items, independent of how fast the machine ran;
    WALL_LIMIT stops a run on a machine far slower than the reference.  Set-up
    is timed again in fresh interpreters spread over the run, so that its
    median sees the same machine as the items do.  Returns the untraced
    records, the traced records and the set-up timings.
    """
    setups = []
    untraced, traced_records = [], []
    measured = 0.0
    deadline = time.perf_counter() + seconds * WALL_LIMIT
    k = 0
    while k == 0 or (measured < seconds and time.perf_counter() < deadline):
        if measured >= seconds * (len(setups) + 1) / SETUP_REPEATS:
            setups.append(setup_probe(workload, seed))
        item = items[k % len(items)]
        untraced.append(execute(item, False, expected))
        measured += untraced[-1]["seconds"]
        if traced:
            traced_records.append(execute(item, True, expected))
            measured += traced_records[-1]["seconds"]
        k += 1
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(setup_probe(workload, seed))
    return untraced, traced_records, setups


def main(argv=None) -> int:
    args = parse_args(argv)
    with workspace("run") as workdir:
        try:
            items, first_setup = setup(args.workload, args.seed, workdir)
        except ImportError as e:
            print(f"error: cannot import latcayley from this checkout: {e}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(first_setup)
            return 0
        expected = workloads.load_expected(args.workload, args.seed)
        untraced, traced, setups = measure(
            args.workload, args.seed, items, expected, args.seconds, bool(args.trace))
        setups.insert(0, first_setup)

    records = untraced + traced
    failed = sum(1 for r in records if r["errors"])
    for r in records:
        for e in r["errors"]:
            print(f"error: {e}", file=sys.stderr)
    if args.trace:
        metrics, notes = per_layer(untraced, traced, args.workload)
        guard_failed = any(n.startswith("coverage guard") for n in notes)
    else:
        metrics, notes = end_to_end(untraced, statistics.median(setups))
        notes.append("setup_s is the median of " + ", ".join(f"{x:.4f}" for x in setups))
        guard_failed = False
    correct = failed == 0 and not guard_failed
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:>16.6f} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
