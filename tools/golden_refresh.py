#!/usr/bin/env python
"""Regenerate the golden statistics corpus under ``tests/golden/``.

The corpus pins ``SimStats.to_dict()`` for the small benchmark grid that
``tests/test_golden_stats.py`` defines (its ``GRID``: benchmark x mode x
core, at its ``SCALE`` and ``LATENCY_SCALE`` on the K20c configuration).
That test module compares live simulations against these files
*exactly*: any counter drift, however small, fails the suite.

That is the point.  When a change intentionally alters simulated
behaviour (a new scheduling rule, a latency fix), regenerate the corpus
and commit the diff alongside the change, so the review shows precisely
which counters moved::

    PYTHONPATH=src python tools/golden_refresh.py

Accidental drift shows up as a test failure with no corpus diff to
explain it.
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from tests.test_golden_stats import GOLDEN_DIR, GRID, live_stats  # noqa: E402


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for bench, mode, tag, core in GRID:
        stats = live_stats(bench, mode, core)
        path = GOLDEN_DIR / f"{bench}-{mode}-{tag}.json"
        path.write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path.relative_to(REPO)} (cycles={stats['cycles']:,})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
