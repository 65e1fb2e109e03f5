"""Compare two checkouts on one perfbench workload and write BENCH_<tag>.json.

Runs ``perfbench/run.py`` in each checkout, pair by pair, alternating which
side goes first, and records for every pair both sides' end-to-end metrics,
their ``correct``/``failed`` counts and the speed factor the run reports
("the machine ran at ...x reference speed").  The record holds, per metric,
each side's median and quartiles and how many pairs the change won (ties
count for neither side), with the seeds, the speed factors, both commits and
each side's total of failed items.  Runs take perfbench's own run length.
Which way a metric is better comes from BENCHMARK.json.  Both checkouts must
be clean git checkouts, so the recorded commits are the code that ran.  The
record is clean, and the script exits 0, only when every run was correct,
failed no item and exited 0.  Uses only the standard library.  Example, from
the root of the change's checkout:

    python scripts/bench.py --parent ../parent --change . --workload level \\
        --seeds 201 --pairs 10 --tag level_sumset

Pairs cycle through the seeds in order; the record goes to the change's
checkout unless ``--out`` names another directory.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEED = re.compile(r"ran at ([0-9.]+)x reference speed")


def git(checkout: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def commit(checkout: Path) -> str:
    """The checkout's HEAD commit; refuses a checkout with uncommitted changes."""
    if git(checkout, "status", "--porcelain"):
        raise SystemExit(f"error: {checkout} has uncommitted changes; commit or clone first")
    return git(checkout, "rev-parse", "HEAD")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its final JSON line plus the speed factor."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench printed nothing in {checkout}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    speed = SPEED.search(proc.stdout)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "exit_code": proc.returncode,
        "speed_factor": float(speed.group(1)) if speed else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        sides = {s: [p[s]["metrics"][name] for p in pairs] for s in ("parent", "change")}
        sign = 1 if better.get(name, "higher") == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        stats = {s: quartiles(v) for s, v in sides.items()}
        base = stats["parent"]["median"]
        summary[name] = {
            "better": better.get(name),
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_ratio": stats["change"]["median"] / base if base else None,
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=None, help="default: one per seed")
    ap.add_argument("--tag", required=True)
    ap.add_argument("--out", type=Path, default=None, help="directory for the record")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {s: commit(d) for s, d in sides.items()}
    pairs = []
    for i in range(args.pairs or len(args.seeds)):
        seed = args.seeds[i % len(args.seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed)
        pairs.append(pair)
        rate = {s: pair[s]["metrics"].get("items_per_s") for s in ("parent", "change")}
        print(f"pair {i}: seed {seed}, {order[0]} first, items_per_s {rate}", flush=True)

    record = {
        "workload": args.workload,
        "seeds": args.seeds,
        "commits": commits,
        "all_correct": all(
            p[s]["correct"] and p[s]["failed"] == 0 and p[s]["exit_code"] == 0
            for p in pairs for s in sides
        ),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in sides},
        "speed_factors": {s: [p[s]["speed_factor"] for p in pairs] for s in sides},
        "summary": summarize(pairs, better),
        "pairs": pairs,
    }
    out = (args.out or sides["change"]) / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
