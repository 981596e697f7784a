"""``python -m repro.trust`` — trust-layer CLI.

Two modes:

* ``--rebuild-check`` — the reproducibility gate: compile the serving
  workload mix twice, cold, in fresh in-memory sessions and prove the
  artifacts' content digests bit-identical (``--reference``: also to a
  committed digest map).  Exit 0 iff every digest matches.
* ``--verify DIR`` — read-only audit of an existing artifact directory
  against its signed manifest (nothing is quarantined).  Exit 0 iff no
  artifact is tampered.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trust",
        description="Artifact-integrity tooling: reproducible-rebuild "
                    "gate and manifest audits.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rebuild-check", action="store_true",
                      help="compile the mix twice, cold, and prove "
                           "content digests are bit-identical")
    mode.add_argument("--verify", metavar="DIR",
                      help="audit DIR against its signed MANIFEST.json")
    parser.add_argument("--scale", default="small",
                        choices=("small", "paper"),
                        help="workload mix scale (default: small)")
    parser.add_argument("--machine", default="cinnamon_4",
                        help="machine config to compile for")
    parser.add_argument("--mix", default="",
                        help="reweight mix classes, e.g. bootstrap=2")
    parser.add_argument("--reference", metavar="JSON",
                        help="committed digest map to also compare "
                             "against (from a prior --json run)")
    parser.add_argument("--json", metavar="OUT", dest="json_out",
                        help="write the full report as JSON")
    args = parser.parse_args(argv)

    if args.verify:
        from .rebuild import verify_cache_dir

        report = verify_cache_dir(args.verify)
        ok = not report["tampered"]
        print(f"verify {args.verify}: "
              f"{len(report['verified'])} verified, "
              f"{len(report['tampered'])} tampered, "
              f"{len(report['missing'])} missing")
        for name in report["tampered"]:
            print(f"  TAMPERED {name}")
    else:
        from ..serve.loadgen import parse_mix_weights
        from ..workloads.serving import serving_mix
        from .rebuild import rebuild_check

        mix = serving_mix(args.scale,
                          weights=parse_mix_weights(args.mix) or None)
        reference = None
        if args.reference:
            with open(args.reference) as handle:
                doc = json.load(handle)
            reference = doc.get("warm", doc)
        report = rebuild_check(mix, machine=args.machine,
                               reference=reference)
        ok = report["ok"]
        print(f"rebuild-check ({args.scale}/{args.machine}): "
              f"{report['artifacts']} artifacts, "
              f"{len(report['mismatched'])} mismatched"
              + (f", {len(report['reference_drift'])} drifted from "
                 f"reference" if reference is not None else ""))
        for key in report["mismatched"]:
            print(f"  MISMATCH {key}")
        for key in report.get("reference_drift", ()):
            print(f"  DRIFT {key}")
        print("REPRODUCIBLE" if ok else "NOT REPRODUCIBLE")

    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
