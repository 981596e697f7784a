"""Replay == live: compare the row-derived families of a metrics
snapshot with the fold of the journal of the same run.  Shared by the
unit, server and cluster tests and by ``serving.yml``'s artifact check.
"""

from repro.obs.analyze import registry_from_journal
from repro.obs.rows import SERIES


def _by_labels(snapshot: dict, family: str) -> dict:
    return {tuple(sorted(series["labels"].items())): series["value"]
            for series in snapshot.get(family, {}).get("series", ())}


def replay_mismatches(snapshot: dict, document: dict, kinds=None) -> list:
    """Problem strings (empty = equal) for every family of
    :data:`repro.obs.rows.SERIES` — fed by a row kind in ``kinds``, if
    given — whose series differ between ``snapshot`` (live) and the
    replay of ``document``: counter values and histogram counts must be
    equal, histogram sums equal to 1e-9 relative.  A series one side
    lacks counts as zero (live declares some before the first row)."""
    replayed = registry_from_journal(document).snapshot()
    problems = []
    for family in SERIES:
        if kinds is not None and family.kind not in kinds:
            continue
        live = _by_labels(snapshot, family.name)
        offline = _by_labels(replayed, family.name)
        for labels in sorted(set(live) | set(offline)):
            if family.type == "histogram":
                empty = {"count": 0, "sum": 0.0}
                a, b = live.get(labels, empty), offline.get(labels, empty)
                same = a["count"] == b["count"] and \
                    abs(a["sum"] - b["sum"]) <= 1e-9 * abs(b["sum"])
            else:
                a, b = live.get(labels, 0), offline.get(labels, 0)
                same = a == b
            if not same:
                problems.append(f"{family.name}{dict(labels)}: "
                                f"live {a} != replayed {b}")
    return problems
