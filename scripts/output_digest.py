"""Print one SHA-256 per section of latcayley's observable output.

Two commits print the same digests exactly when their outputs agree on:

- ``fixtures``: ``latcayley check`` on every fixture, for every property in
  ``cli.CHECKS``, in text and in json format, plus ``tuple-idp`` on the
  ex19 and ex24 factor pairs (stdout, stderr and exit code);
- ``random``: every ``cli.CHECKS`` decider on the 200 seeded random polytopes
  of acceptance criterion 9;
- ``reproduce``: ``latcayley reproduce`` on each documented example;
- ``campaigns``: every theorem campaign at two seeds.

Timestamps are stripped before hashing.  To compare two commits, run it
against each checkout and diff the output:

    PYTHONPATH=src python scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

from latcayley import CampaignConfig, random_lattice_polytope, verify_theorem
from latcayley.campaigns import THEOREM_IDS
from latcayley.cli import CHECKS, main
from latcayley.geometry import CellBudgetExceeded, GeometryError
from latcayley.reproduce import EXAMPLE_NAMES

ROOT = Path(__file__).resolve().parent.parent
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return TIMESTAMP.sub('"timestamp": ""', f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}")


def _decide(decide, P) -> str:
    try:
        return json.dumps(decide([P], None).to_dict(), sort_keys=True)
    except (GeometryError, CellBudgetExceeded) as e:  # a refusal is output too
        return f"{type(e).__name__}: {e}"


def fixtures():
    names = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    for name in names:
        for prop in CHECKS:
            for fmt in ("text", "json"):
                yield _cli(["check", "--property", prop, f"fixtures/{name}", "--format", fmt])
    for ex in ("ex19", "ex24"):
        for fmt in ("text", "json"):
            pair = [f"fixtures/{ex}_p1.json", f"fixtures/{ex}_p2.json"]
            yield _cli(["check", "--property", "tuple-idp", *pair, "--format", fmt])


def random():
    for seed in range(200):
        dim = 1 + seed % 3
        P = random_lattice_polytope(seed, dim, dim, coord_bound=2)
        for prop, (_, _, decide) in CHECKS.items():
            yield f"{seed} {prop} {_decide(decide, P)}"


def reproduce():
    for name in EXAMPLE_NAMES:
        yield _cli(["reproduce", name, "--format", "json"])


def campaigns():
    for seed in (0, 1):
        for theorem_id in THEOREM_IDS:
            cfg = CampaignConfig(theorem_id, trials=4, seed=seed, dim_max=2, coord_bound=3)
            yield json.dumps(verify_theorem(cfg).to_dict(), sort_keys=True)


def run() -> None:
    os.chdir(ROOT)
    for section in (fixtures, random, reproduce, campaigns):
        h = hashlib.sha256()
        for record in section():
            h.update(record.encode("utf-8") + b"\0")
        print(f"{section.__name__:10s} {h.hexdigest()}")


if __name__ == "__main__":
    run()
