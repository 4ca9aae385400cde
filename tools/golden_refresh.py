#!/usr/bin/env python
"""Regenerate the golden statistics corpus under ``tests/golden/``.

The corpus pins ``SimStats.to_dict()`` for the small grid of cells that
``tests/test_golden_stats.py`` defines (its ``CELLS``: benchmark x mode,
at its ``SCALE`` and ``LATENCY_SCALE`` on the K20c configuration), one
record per cell without ``config.core``.  That test module compares live
simulations on both execution cores against these files *exactly*: any
counter drift, however small, fails the suite.

That is the point.  When a change intentionally alters simulated
behaviour (a new scheduling rule, a latency fix), regenerate the corpus
and commit the diff alongside the change, so the review shows precisely
which counters moved::

    PYTHONPATH=src python tools/golden_refresh.py

Every cell runs on both cores.  If the two disagree anywhere, the script
names the counters and writes nothing: the cores must be stat-exact, so
neither side is a golden answer.  Accidental drift shows up as a test
failure with no corpus diff to explain it.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from tests.test_golden_stats import CELLS, CORES, GOLDEN_DIR, live_stats  # noqa: E402


def main() -> int:
    records = {}
    disagree = 0
    for bench, mode in CELLS:
        (tag, first), *rest = [(tag, live_stats(bench, mode, core)) for tag, core in CORES]
        for other_tag, other in rest:
            drifted = sorted(key for key in first.keys() | other.keys()
                             if first.get(key) != other.get(key))
            if drifted:
                disagree += 1
                print(f"{bench} {mode}: {tag} and {other_tag} differ in {drifted}",
                      file=sys.stderr)
        records[bench, mode] = first
    if disagree:
        print(f"{disagree} cell(s) differ between the cores; nothing written",
              file=sys.stderr)
        return 1
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for (bench, mode), record in records.items():
        path = GOLDEN_DIR / f"{bench}-{mode}.json"
        path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path.relative_to(REPO)} (cycles={record['cycles']:,})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
