"""Test-suite configuration: Hypothesis profiles and a peak-RSS line.

The ``ci`` profile pins the fuzz tests to a deterministic, bounded run
(fixed seed via derandomization, small example counts, no deadline) so
the CI fuzz-smoke job is reproducible and fast; ``dev`` raises the
example count for local soak runs.  Select with
``HYPOTHESIS_PROFILE=ci|dev`` (default: Hypothesis defaults, with the
per-test ``@settings`` caps in each file).

At the end of a session the run's peak RSS is printed, so a memory
regression shows in the log rather than as an unexplained OOM kill.
For that line to measure the program rather than the allocator, glibc's
mmap threshold is pinned at 128 KiB: left dynamic, it rises to the size
of each large block freed (up to 32 MiB), and later multi-megabyte
arrays come from the heap, where zeroing recycled pages makes them
resident.
"""

from __future__ import annotations

import ctypes
import os
import resource
import sys

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=10, deadline=None)
settings.register_profile("dev", max_examples=50, deadline=None)

_profile = os.environ.get("HYPOTHESIS_PROFILE")
if _profile:
    settings.load_profile(_profile)

#: glibc's ``mallopt`` parameter number for the mmap threshold.
M_MMAP_THRESHOLD = -3


def _pin_mmap_threshold(nbytes: int) -> None:
    """``mallopt(M_MMAP_THRESHOLD, nbytes)``; a no-op without glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, nbytes)


_pin_mmap_threshold(131072)


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    yield  # after the terminal summary: the last line of the log
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    unit = 1 if sys.platform == "darwin" else 1024
    peak = {
        who: resource.getrusage(which).ru_maxrss * unit / 2**20
        for who, which in (("self", resource.RUSAGE_SELF),
                           ("children", resource.RUSAGE_CHILDREN))
    }
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(
            f"peak RSS: {peak['self']:.0f} MiB "
            f"(largest reaped child {peak['children']:.0f} MiB)"
        )
