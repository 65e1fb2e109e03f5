#!/usr/bin/env python3
"""Measure item costs and add them to perfbench/item_pool.json.

    python3 perfbench/make_pool.py --entry cor_3_4 --base 777 --seconds 600 --cap 10
    python3 perfbench/make_pool.py --entry cor_3_4 --remeasure

The first form draws item seeds from random.Random(base) for --seconds; the
second times every seed already in the entry again and replaces its cost.
Each item runs once in a forked child with cold caches, and its time at
reference speed (speed.py) is recorded as [seed, cost in ms].  An item that
runs past --cap seconds is dropped and reported; the pool, and so the
benchmark, leaves it out.  The pool only ranks items into cost strata, so
costs measured on another machine serve as well, but the closer the costs,
the narrower each stratum and the steadier the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def item_for(entry: str, seed: int, workdir: Path) -> workloads.Item:
    if entry == "mink3d":
        return workloads.mink3d_item(0, seed, workdir)
    workload = next(w for w, cs in workloads.CAMPAIGNS.items() if entry in dict(cs))
    return workloads.Item(workload, 0, entry, seed)


def measure(item: workloads.Item, cap: int) -> float | None:
    """Seconds the item takes in a fresh child, or None past the cap."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        signal.alarm(cap)
        with speed.Stopwatch() as watch:
            workloads.run_item(item)
        os.write(wfd, repr(watch.seconds).encode())
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as f:
        payload = f.read()
    os.waitpid(pid, 0)
    return float(payload) if payload else None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--entry", required=True,
                   choices=[c for cs in workloads.CAMPAIGNS.values() for c, _ in cs] + ["mink3d"])
    p.add_argument("--base", type=int, help="draw new item seeds from random.Random(base)")
    p.add_argument("--seconds", type=float, help="how long to draw new item seeds")
    p.add_argument("--remeasure", action="store_true",
                   help="time every seed already in the entry again instead")
    p.add_argument("--cap", type=int, default=10)
    args = p.parse_args()
    if not args.remeasure and (args.base is None or args.seconds is None):
        p.error("--base and --seconds are needed unless --remeasure is given")
    run.import_latcayley()
    pool = workloads.load_pool() if workloads.POOL_FILE.exists() else {}
    entries = pool.setdefault(args.entry, [])
    dropped = 0
    with run.workspace("pool") as workdir:
        if args.remeasure:
            seeds = [seed for seed, _ in entries]
            entries.clear()
            for seed in seeds:
                cost = measure(item_for(args.entry, seed, workdir), args.cap)
                if cost is None:
                    dropped += 1
                else:
                    entries.append([seed, round(cost * 1000, 1)])
        else:
            known = {seed for seed, _ in entries}
            rng = random.Random(args.base)
            deadline = time.perf_counter() + args.seconds
            while time.perf_counter() < deadline:
                seed = rng.randrange(2**31)
                cost = measure(item_for(args.entry, seed, workdir), args.cap)
                if cost is None:
                    dropped += 1
                elif seed not in known:
                    known.add(seed)
                    entries.append([seed, round(cost * 1000, 1)])
    entries.sort()
    lines = ",\n".join(
        f'  "{name}": {json.dumps(pool[name], separators=(",", ":"))}' for name in sorted(pool)
    )
    workloads.POOL_FILE.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    print(f"{args.entry}: {len(entries)} entries; {dropped} items dropped "
          f"(over the {args.cap} s cap or failed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
