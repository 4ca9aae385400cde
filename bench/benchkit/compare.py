"""``run.py --compare A.json B.json``: judge result set B against A.

Each (end-to-end metric, workload) pair is its own row, judged by the
bound ``BENCHMARK.json`` fixes for the metric:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the larger of the two sets') is wider than the bound, so "no
  change" cannot be told from "changed" — unless every run of B reads
  better than every run of A;
* ``ok`` otherwise.

``setup_s`` is judged by its median alone (the driver's rule).

Simulated counts must repeat exactly between the sets, and no operation
may have failed.  Anything but ``ok`` everywhere exits non-zero.  Sets
made with different ``--seed``, ``--seconds`` or ``--smoke`` measured
different work and are refused.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from . import core

#: Per-layer metrics that are simulated counts: bit-identical or broken.
EXACT = (
    "sim.issued", "sim.cycles", "memory.transactions", "dtbl.match_rate",
    "runtime.cycles_per_launch.cdp", "runtime.cycles_per_launch.dtbl",
    "runtime.cycles_per_launch.persistent",
)


#: Judged by its median only, as the driver does ("each of these spreads,
#: except that of setup_s, stays within the metric's bound"): a run reports
#: the median of just three set-ups of about a second each.
SPREAD_EXEMPT = "setup_s"

#: What two result sets must share to be comparable at all.
SAME_WORK = ("seed", "run_seconds", "smoke")


def _numbers(values: Optional[Sequence]) -> List[float]:
    return [v for v in (values or []) if v is not None]


def judge(a: List[float], b: List[float], better: str, bound: float,
          spread_matters: bool = True) -> str:
    if not a or not b:
        return "missing"
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = core.median(a), core.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if worse_by > bound:
        return "regression"
    if spread_matters and max(core.spread(a), core.spread(b)) > bound and not all_better:
        return "unresolved"
    return "ok"


def print_summary(document: dict, manifest: dict) -> None:
    """Median and spread of every end-to-end metric, one row per workload."""
    print(f"# host {json.dumps(document.get('host', {}), sort_keys=True)}")
    header = f"{'workload':<14s} {'metric':<22s} {'median':>12s} {'unit':<6s} {'spread':>7s} {'runs':>4s}"
    print(header)
    for workload, row in document["rows"].items():
        for spec in manifest["end_to_end"]:
            values = _numbers(row["end_to_end"].get(spec["name"]))
            if not values:
                print(f"{workload:<14s} {spec['name']:<22s} {'null':>12s}")
                continue
            print(f"{workload:<14s} {spec['name']:<22s} {core.median(values):>12.4f} "
                  f"{spec['unit']:<6s} {100 * core.spread(values):>6.1f}% {len(values):>4d}")
        for name, raw in row.get("raw", {}).items():
            values = _numbers(raw)
            print(f"{workload:<14s} {'raw ' + name:<22s} {core.median(values):>12.4f} "
                  f"{'':<6s} {100 * core.spread(values):>6.1f}% {len(values):>4d}")
        attempted = max(1, row["attempted"])
        print(f"{workload:<14s} {'failed_frac':<22s} {row['failed'] / attempted:>12.4f} "
              f"{'ratio':<6s} {'':>7s} {row['failed']}/{attempted}")


def main(path_a: str, path_b: str, manifest: dict) -> int:
    with open(path_a, encoding="utf-8") as handle:
        doc_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        doc_b = json.load(handle)
    differing = [key for key in SAME_WORK if doc_a.get(key) != doc_b.get(key)]
    if differing:
        print("# refused: the sets did not measure the same work: " + ", ".join(
            f"{key} {doc_a.get(key)!r} vs {doc_b.get(key)!r}" for key in differing))
        return 2
    print(f"# A: {path_a} host {doc_a['host'].get('node')} "
          f"B: {path_b} host {doc_b['host'].get('node')}")
    if doc_a["host"].get("node") != doc_b["host"].get("node"):
        print("# WARNING: the sets come from different hosts; only the "
              "normalised (norm_*) rows are comparable")
    verdicts: Dict[str, int] = {}
    print(f"{'workload':<14s} {'metric':<22s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in manifest["workloads"]]:
        row_a = doc_a["rows"].get(workload, {})
        row_b = doc_b["rows"].get(workload, {})
        for spec in manifest["end_to_end"]:
            a = _numbers(row_a.get("end_to_end", {}).get(spec["name"]))
            b = _numbers(row_b.get("end_to_end", {}).get(spec["name"]))
            verdict = judge(a, b, spec["better"], spec["bound"],
                            spread_matters=spec["name"] != SPREAD_EXEMPT)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            if a and b:
                med_a, med_b = core.median(a), core.median(b)
                change = (med_b - med_a) / abs(med_a) if med_a else 0.0
                wide = max(core.spread(a), core.spread(b))
                print(f"{workload:<14s} {spec['name']:<22s} {med_a:>12.4f} {med_b:>12.4f} "
                      f"{100 * change:>+7.1f}% {100 * wide:>6.1f}% "
                      f"{100 * spec['bound']:>5.0f}%  {verdict}")
            else:
                print(f"{workload:<14s} {spec['name']:<22s} {'-':>12s} {'-':>12s} "
                      f"{'':>8s} {'':>7s} {'':>6s}  {verdict}")
        for name in EXACT:
            a = _numbers(row_a.get("per_layer", {}).get(name))
            b = _numbers(row_b.get("per_layer", {}).get(name))
            if not a or not b:
                continue
            if a != b:
                verdicts["differs"] = verdicts.get("differs", 0) + 1
                print(f"{workload:<14s} {name:<34s} A {sorted(set(a))} B {sorted(set(b))}  differs")
        for label, row in (("A", row_a), ("B", row_b)):
            if row.get("failed"):
                verdicts["failed"] = verdicts.get("failed", 0) + 1
                print(f"{workload:<14s} failed_frac set {label}: "
                      f"{row['failed']}/{row['attempted']}  failed")
    print("# " + ", ".join(f"{count} {verdict}" for verdict, count in sorted(verdicts.items())))
    return 0 if set(verdicts) <= {"ok"} else 1
