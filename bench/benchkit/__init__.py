"""Support code for ``bench/run.py`` (see ``bench/README.md``).

* :mod:`.core` — paths, the ``repro`` import, statistics helpers, the
  span log, the host block and the host calibration loop;
* :mod:`.simload` — the four simulator workloads (untraced and traced);
* :mod:`.serveload` — the daemon workload and the small serve probe;
* :mod:`.probes` — per-layer micro-probes shared by every traced run;
* :mod:`.compare` — ``run.py --compare A.json B.json``.

Nothing here is imported by the program under test.
"""
