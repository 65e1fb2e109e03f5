"""Regenerate the golden CLI reports under tests/golden/.

Reports are deterministic apart from the timestamp field; tests compare
against these files with the timestamp dropped.  A golden file is rewritten
only when its content apart from the timestamp changed, so regenerating
leaves unchanged reports byte-identical.
"""

import json
import os
import tempfile
from pathlib import Path

from latcayley.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# paths are relative to the repo root so the stored reports stay portable
CASES = {
    "check_idp_unit_square.json": [
        "check",
        "--property",
        "idp",
        "fixtures/unit_square.json",
    ],
    "check_level_ex19_cayley.json": [
        "check",
        "--property",
        "level",
        "fixtures/ex19_cayley.json",
    ],
    "check_2cn_reeve.json": [
        "check",
        "--property",
        "2cn",
        "fixtures/reeve.json",
    ],
    "check_edge_criterion_simplex_2d.json": [
        "check",
        "--property",
        "edge-criterion",
        "fixtures/simplex_2d.json",
    ],
    "check_tuple_idp_ex24.json": [
        "check",
        "--property",
        "tuple-idp",
        "fixtures/ex24_p1.json",
        "fixtures/ex24_p2.json",
    ],
    "check_cond01_simplex_2d.json": [
        "check",
        "--property",
        "cond01",
        "fixtures/simplex_2d.json",
    ],
    "check_gorenstein_double_simplex_2d.json": [
        "check",
        "--property",
        "gorenstein",
        "fixtures/double_simplex_2d.json",
    ],
    "reproduce_example_1_9_3_1.json": [
        "reproduce",
        "example_1_9",
        "--params",
        "3",
        "1",
    ],
    "verify_thm_0_1.json": [
        "verify",
        "thm_0_1",
        "--trials",
        "3",
        "--seed",
        "7",
        "--dim-max",
        "2",
        "--coord-bound",
        "3",
        "--dilation-bound",
        "2",
    ],
}


def _without_timestamp(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timestamp", None)
    return doc


def run() -> None:
    os.chdir(ROOT)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            fresh, out = Path(tmp) / name, GOLDEN / name
            code = main(argv + ["--out", str(fresh)])
            if out.exists() and _without_timestamp(out) == _without_timestamp(fresh):
                status = "unchanged"
            else:
                out.write_bytes(fresh.read_bytes())
                status = "written"
            print(f"{name}: exit {code}, {status}")


if __name__ == "__main__":
    run()
