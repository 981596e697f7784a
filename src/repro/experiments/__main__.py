"""Command-line experiment runner.

    python -m repro.experiments list
    python -m repro.experiments table1 table3
    python -m repro.experiments fig13 --full
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
import sys
import time

from . import ALL_EXPERIMENTS

# Rough fast-mode wall times, to set expectations in `list`.  fig6, fig14
# and fig16 were measured with the C simulator engine on a 2-vCPU x86-64
# host (46 s, 47 s and 16 s).
_COSTS = {
    "fig1": "instant", "table1": "instant", "table3": "instant",
    "fig11": "minutes", "fig12": "minutes", "fig15": "minutes",
    "table2": "minutes", "fig13": "~1 min", "fig14": "~50 s",
    "fig16": "~15 s", "fig6": "~50 s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures of the Cinnamon paper.")
    parser.add_argument("names", nargs="+",
                        help="experiment names (see `list`), or `all`")
    parser.add_argument("--full", action="store_true",
                        help="run full published sweep grids (slow)")
    parser.add_argument("--tuned", action="store_true",
                        help="use autotuned configs from the tuning DB "
                             "where the experiment supports them (fig16)")
    args = parser.parse_args(argv)

    if args.names == ["list"]:
        for name in sorted(ALL_EXPERIMENTS):
            doc = ALL_EXPERIMENTS[name].__doc__.strip().splitlines()[0]
            print(f"  {name:8s} [{_COSTS.get(name, '?'):8s}] {doc}")
        return 0

    names = sorted(ALL_EXPERIMENTS) if args.names == ["all"] else args.names
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; try `list`", file=sys.stderr)
            return 2
        module = ALL_EXPERIMENTS[name]
        kwargs = {}
        if args.tuned:
            import inspect

            if "tuned" in inspect.signature(module.run).parameters:
                kwargs["tuned"] = True
            else:
                print(f"[{name}: --tuned not supported, using defaults]")
        start = time.perf_counter()
        result = module.run(fast=not args.full, **kwargs)
        elapsed = time.perf_counter() - start
        print(module.format_result(result))
        print(f"[{name}: {elapsed:.1f}s]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
