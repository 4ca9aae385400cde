#!/usr/bin/env python
"""Sweep-cache check: a warm harness rerun must simulate nothing.

Runs a scaled-down Figure 11 sweep twice through the harness CLI in
separate processes (so the in-process memo cannot help):

1. **cold** — ``--jobs 2`` against an empty cache directory: exercises
   the multi-process sweep engine and populates the cache;
2. **warm** — same invocation: must decode every cell from disk.

Fails if the rendered figures differ, if the warm run touched the cache
(any entry file changed), or if the warm run is not decisively faster
than the cold one (warm decodes JSON; cold simulates).

CI runs this in the ``smoke`` job::

    PYTHONPATH=src python tools/sweep_cache_check.py
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_harness(cache_dir: pathlib.Path, scale: float, jobs: int) -> tuple[str, float]:
    command = [
        sys.executable, "-m", "repro.harness",
        "--figure", "11",
        "--scale", str(scale),
        "--jobs", str(jobs),
        "--cache-dir", str(cache_dir),
        "--quiet",
    ]
    start = time.perf_counter()
    result = subprocess.run(
        command, cwd=REPO, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    elapsed = time.perf_counter() - start
    if result.returncode != 0:
        print(f"sweep-cache: harness FAILED (exit {result.returncode})")
        print(result.stdout)
        print(result.stderr, file=sys.stderr)
        sys.exit(result.returncode)
    return result.stdout, elapsed


def snapshot(cache_dir: pathlib.Path) -> dict:
    """Entry path -> (mtime_ns, size) for every cache file."""
    return {
        path: (path.stat().st_mtime_ns, path.stat().st_size)
        for path in sorted(cache_dir.rglob("*.json"))
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="warm run must be at least this many times faster",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-sweep-cache-") as tmp:
        cache_dir = pathlib.Path(tmp) / "cache"

        cold_out, cold_s = run_harness(cache_dir, args.scale, args.jobs)
        entries = snapshot(cache_dir)
        if not entries:
            print("sweep-cache: FAIL — cold run stored no cache entries")
            return 1
        print(f"sweep-cache: cold {cold_s:.1f}s, {len(entries)} entries stored")

        warm_out, warm_s = run_harness(cache_dir, args.scale, args.jobs)
        print(f"sweep-cache: warm {warm_s:.1f}s")

        if warm_out != cold_out:
            print("sweep-cache: FAIL — warm figure differs from cold figure")
            for cold_line, warm_line in zip(
                cold_out.splitlines(), warm_out.splitlines()
            ):
                if cold_line != warm_line:
                    print(f"  cold: {cold_line}")
                    print(f"  warm: {warm_line}")
            return 1

        if snapshot(cache_dir) != entries:
            print("sweep-cache: FAIL — warm run modified the cache "
                  "(it should only read; a changed entry means it simulated)")
            return 1

        if warm_s * args.min_speedup > cold_s:
            print(
                f"sweep-cache: FAIL — warm run not decisively faster "
                f"({warm_s:.1f}s vs {cold_s:.1f}s cold; "
                f"required {args.min_speedup:.0f}x)"
            )
            return 1

    print("sweep-cache: OK — warm rerun decoded everything from disk, "
          "figures identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
