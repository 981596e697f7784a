"""``python -m repro.obs`` — analysis of one run's trace journal.

Examples::

    # Per-trace critical paths + FU/link utilization
    python -m repro.obs journal.json

    # One request only (trace-id prefixes work)
    python -m repro.obs journal.json --trace-id 3fa94b2c

    # CI health gate: exit 1 unless every row is trace-stamped and every
    # successful serve trace has compile + simulate children
    python -m repro.obs journal.json --check

    # Prometheus textfile synthesized from the journal rows
    python -m repro.obs journal.json --prom-out metrics.prom
"""

from __future__ import annotations

import argparse
import sys

from .analyze import check, load_journal, registry_from_journal, render_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Critical-path and utilization analysis of a "
                    "repro trace journal (schema >= 5).")
    parser.add_argument("journal", help="trace journal JSON "
                        "(CinnamonServer.export_trace / session.export_trace)")
    parser.add_argument("--trace-id", default=None,
                        help="report a single trace (prefix match)")
    parser.add_argument("--check", action="store_true",
                        help="verify cross-layer invariants; exit 1 on "
                             "any problem")
    parser.add_argument("--prom-out", default=None, metavar="FILE",
                        help="write a Prometheus textfile synthesized "
                             "from the journal")
    args = parser.parse_args(argv)

    document = load_journal(args.journal)

    if args.check:
        problems = check(document)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            return 1
        traces = sum(1 for _ in set(
            row.get("trace_id") for row in document.get("jobs", ())
            if row.get("trace_id")))
        print(f"OK: {len(document.get('jobs', []))} rows, "
              f"{traces} traces, all invariants hold")
        return 0

    print(render_report(document, trace_id=args.trace_id))

    if args.prom_out:
        registry = registry_from_journal(document)
        with open(args.prom_out, "w") as handle:
            handle.write(registry.render_prometheus())
        print(f"wrote {args.prom_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
