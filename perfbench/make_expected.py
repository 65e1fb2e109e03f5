#!/usr/bin/env python3
"""Record the mink3d outcomes of the default seed in expected_mink3d.json.

    python3 perfbench/make_expected.py --items 16

Run it only when the workload's inputs change: the benchmark compares every
mink3d item of the default seed against this file, so rewriting it after a
change to the program would hide a changed verdict or witness.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--items", type=int, default=16)
    args = p.parse_args()
    run.import_latcayley()
    expected = {}
    with run.workspace("expected") as workdir:
        items = workloads.generate("mink3d", workloads.DEFAULT_SEED, workdir)
        for item in items[:args.items]:
            result = workloads.outcome(item, workloads.run_item(item))
            errors = workloads.check(item, result)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            expected[str(item.index)] = result
    lines = ",\n".join(
        f' "{k}": {json.dumps(v, sort_keys=True)}' for k, v in expected.items()
    )
    workloads.EXPECTED_FILE.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    print(f"wrote {len(expected)} outcomes to {workloads.EXPECTED_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
