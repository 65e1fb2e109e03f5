"""Run every randomized verification campaign and print a one-line summary each.

Pass ``--trials`` to change the per-campaign trial count and ``--seed`` for a
different sweep.  Exits nonzero if any campaign records a violation.
"""

import argparse
import sys
import time

from latcayley import CampaignConfig, verify_theorem
from latcayley.campaigns import THEOREM_IDS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dim-max", type=int, default=2)
    ap.add_argument("--coord-bound", type=int, default=3)
    ap.add_argument("--dilation-bound", type=int, default=CampaignConfig.dilation_bound)
    args = ap.parse_args()

    bad = 0
    for theorem_id in THEOREM_IDS:
        cfg = CampaignConfig(
            theorem_id,
            trials=args.trials,
            seed=args.seed,
            dim_max=args.dim_max,
            coord_bound=args.coord_bound,
            dilation_bound=args.dilation_bound,
        )
        t0 = time.perf_counter()
        rep = verify_theorem(cfg)
        status = "ok" if rep.ok else f"{len(rep.violations)} violations"
        print(f"{theorem_id:18s} {rep.trials_run:4d} trials  {status:14s} {time.perf_counter() - t0:6.1f}s")
        for v in rep.violations:
            print(f"  trial {v.trial}: {v.note}")
        for note in rep.notes:
            print(f"  note: {note}")
        bad += len(rep.violations)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
