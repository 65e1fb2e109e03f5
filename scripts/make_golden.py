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

from latcayley.cli import CHECKS, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# cli.CHECKS property -> (golden label, the fixtures it is checked on); a
# property missing here stops this module at import
CHECK_FIXTURES = {
    "idp": ("unit_square", ["unit_square"]),
    "tuple-idp": ("ex24", ["ex24_p1", "ex24_p2"]),
    "2cn": ("reeve", ["reeve"]),
    "cond01": ("simplex_2d", ["simplex_2d"]),
    "level": ("ex19_cayley", ["ex19_cayley"]),
    "gorenstein": ("double_simplex_2d", ["double_simplex_2d"]),
    "edge-criterion": ("simplex_2d", ["simplex_2d"]),
}

# paths are relative to the repo root so the stored reports stay portable
CASES = {
    f"check_{prop.replace('-', '_')}_{label}.json": [
        "check",
        "--property",
        prop,
        *(f"fixtures/{name}.json" for name in names),
    ]
    for prop in CHECKS
    for label, names in [CHECK_FIXTURES[prop]]
}
CASES.update({
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
})


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
