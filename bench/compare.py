"""``run.py --compare``: judge one set of result files against another.

For every workload and end-to-end metric: each side's median, the ratio
new/base, the metric's bound and a verdict —

* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``unresolved``: the base side's own run-to-run spread (interquartile
  range over median) exceeds the bound, so the runs cannot tell — unless
  every new run reads better than every base run;
* ``ok`` otherwise.

Exit status 1 on any ``worse``, or when a workload's failed share of
operations rose.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List


def _load(paths) -> Dict[str, List[dict]]:
    """workload -> that workload's result from every file (a file is one
    workload's result or a suite holding several)."""
    runs: Dict[str, List[dict]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        singles = (document["workloads"].values()
                   if "workloads" in document else [document])
        for single in singles:
            runs.setdefault(single["workload"], []).append(single)
    return runs


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base, new, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    base_median, new_median = statistics.median(base), statistics.median(new)
    if spread(base) > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in base)
        return "ok" if all_better else "unresolved"
    worsening = sign * (new_median - base_median) / abs(base_median)
    return "worse" if worsening > bound else "ok"


def _shown(value) -> str:
    return str(int(value)) if value == int(value) else f"{value:.6g}"


def _failed_share(runs) -> float:
    attempted = sum(r["ops_attempted"] for r in runs)
    return sum(r["ops_failed"] for r in runs) / max(1, attempted)


def compare(base_paths, new_paths) -> int:
    if not base_paths or not new_paths:
        print("--compare needs --base FILE... and --new FILE...")
        return 2
    base, new = _load(base_paths), _load(new_paths)
    status = 0
    print(f"{'workload':15s} {'metric':24s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for workload in base:
        if workload not in new:
            print(f"{workload:15s} missing from the new side")
            status = 1
            continue
        for name, meta in base[workload][0]["metrics"].items():
            ours = [r["metrics"][name]["value"] for r in base[workload]
                    if name in r["metrics"]]
            theirs = [r["metrics"][name]["value"] for r in new[workload]
                      if name in r["metrics"]]
            if not theirs:
                print(f"{workload:15s} {name:24s} missing from the new side")
                status = 1
                continue
            word = verdict(ours, theirs, meta["better"], meta["bound"])
            base_median = statistics.median(ours)
            new_median = statistics.median(theirs)
            print(f"{workload:15s} {name:24s} {_shown(base_median):>12s} "
                  f"{_shown(new_median):>12s} {new_median / base_median:9.4f} "
                  f"{100 * meta['bound']:5g}%  {word}  [{meta['unit']}, "
                  f"{meta['better']} is better, n={len(ours)}/{len(theirs)}]")
            if word == "worse":
                status = 1
        before, after = _failed_share(base[workload]), _failed_share(
            new[workload])
        if after > before:
            print(f"{workload:15s} failed share rose from {before:.4f} "
                  f"to {after:.4f}")
            status = 1
    return status
