"""Command-line autotuner.

    python -m repro.tune --workload bootstrap --machine cinnamon_4 --budget 8

Simulates the stock config plus ``--budget`` seeded samples of the
search space to completion, prints a leaderboard, and persists the
winner to the tuning DB under the cache directory — a second
invocation reuses the on-disk compile cache (watch the ``compile cache
... hits`` line) and only re-simulates what it must.

``--trace`` exports the session's merged JSON trace (including the
``kind: "tune"`` entry); ``--report`` writes the structured
:class:`~repro.tune.tuner.TuningReport` for CI gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .db import TuningDB, default_db_path
from .tuner import Tuner
from .workloads import SCALES, WORKLOAD_NAMES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Search the (CompilerOptions x MachineConfig) space "
                    "with the cycle simulator as the cost oracle.")
    parser.add_argument("--workload", default="bootstrap",
                        choices=WORKLOAD_NAMES,
                        help="named workload to tune (default: bootstrap)")
    parser.add_argument("--machine", default="cinnamon_4",
                        help="target machine spec, e.g. cinnamon_4 "
                             "(default: cinnamon_4)")
    parser.add_argument("--scale", default="small", choices=SCALES,
                        help="workload scale: 'small' compiles in "
                             "milliseconds, 'paper' is the architectural "
                             "scale (default: small)")
    parser.add_argument("--budget", type=int, default=16,
                        help="candidates sampled, each simulated to "
                             "completion (default: 16)")
    parser.add_argument("--seed", type=int, default=0,
                        help="search RNG seed (default: 0)")
    parser.add_argument("--tune-machine", action="store_true",
                        help="also sweep Figure 16's resource-scaled "
                             "machine variants (capacity planning)")
    parser.add_argument("--cache-dir", default=".cinnamon-cache",
                        help="compile cache + tuning DB directory "
                             "(default: .cinnamon-cache)")
    parser.add_argument("--top", type=int, default=10,
                        help="leaderboard rows to print (default: 10)")
    parser.add_argument("--trace", metavar="PATH",
                        help="export the merged session trace JSON here")
    parser.add_argument("--report", metavar="PATH",
                        help="write the structured tuning report JSON here")
    args = parser.parse_args(argv)

    tuner = Tuner(cache_dir=args.cache_dir, seed=args.seed)
    report = tuner.tune(
        args.workload, args.machine, scale=args.scale,
        budget=args.budget, tune_machine=args.tune_machine)

    print(report.leaderboard(limit=args.top))
    print(f"tuning DB: {report.db_path} (key {report.db_key[:16]}...)")
    print(f"compile cache: {report.cache_hits} hits / "
          f"{report.cache_misses} misses under {args.cache_dir}")

    if args.trace:
        path = tuner.session.export_trace(args.trace)
        print(f"trace: {path}")
    if args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.as_dict(), indent=2))
        print(f"report: {path}")

    if report.best_cycles > report.default_cycles:
        # Cannot happen (the default is in the pool), but gate anyway.
        print("error: best candidate is slower than the default config",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
