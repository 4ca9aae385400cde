#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads, every metric.

Driver contract (see ``BENCHMARK.json``)::

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in this process and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs
all five workloads, each in a fresh process, ``--runs`` times untraced and
once traced, and writes a result set that ``--compare A.json B.json`` can judge.

``bench/README.md`` says what each workload and metric is for.
"""

import time

_T0 = time.perf_counter()  # setup_s is measured from here

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchkit.core import HOST_ENV  # noqa: E402

os.environ.update(HOST_ENV)  # before NumPy loads; children inherit it

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

from benchkit import compare, core  # noqa: E402

SIM_WORKLOADS = ("alu_flat", "mem_flat", "launch_dyn", "persist_queue")
SERVE_WORKLOAD = "serve_sweep"
#: Extra fresh-process set-ups timed per untraced run (the run's own makes
#: three).  The driver's contract asks for it: "For setup_s, set up several
#: times in a run and report the median".  A set-up is a 0.6-2.6 s reading;
#: even the median of three spreads 8-34 % over ten runs, and the driver
#: holds the medians of two ten-run sets against the bound.
SETUP_CHILDREN = 2
#: A traced run's paired passes (``run_job`` + staged replay) last this many
#: times ``--seconds``: ``trace.stage_sum_ratio`` compares two executions of
#: each job, which differ by ~12 % here, so it takes ~25 pairs to hold it
#: to 0.95-1.05.  Few runs are traced, so the total-time cap allows it.
TRACED_PASS_FACTOR = 2.0


# ----------------------------------------------------------------------
# Set-up (import + warm-up pass, + daemon boot on serve_sweep)
# ----------------------------------------------------------------------
def set_up(workload: str, seed: int, smoke: bool, result: core.RunResult):
    """Do the workload's set-up; returns (seconds since process start, state)."""
    if workload == SERVE_WORKLOAD:
        from benchkit import serveload

        traffic = (serveload.make_traffic(seed, solo=4, pairs=0, warm=20) if smoke
                   else serveload.make_traffic(seed))
        reference = serveload.reference_results(traffic.distinct, result)
        with serveload.fresh_daemon():
            elapsed = time.perf_counter() - _T0
        return elapsed, (traffic, reference)
    from benchkit import simload

    simload.warm_up(workload)
    return time.perf_counter() - _T0, None


def child_setup_seconds(workload: str, seed: int, smoke: bool) -> float:
    """Set up once more in a fresh process; it reports its own seconds."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True,
                          env=core.child_env(), timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def program_missing() -> bool:
    """True (after saying why) when there is no ``repro`` here to measure."""
    try:
        core.require_repro()
    except (core.BenchUnavailable, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return True
    return False


def run_workload(args) -> int:
    manifest = core.load_manifest()
    if program_missing():
        return 2
    result = core.RunResult()
    elapsed, state = set_up(args.workload, args.seed, args.smoke, result)
    if args.setup_probe:
        print(repr(elapsed))
        return 0 if result.failed == 0 else 1

    traced = bool(args.trace)
    if traced:
        run_traced(args, state, result)
        section = manifest["per_layer"]
    else:
        setups = [elapsed] + [
            child_setup_seconds(args.workload, args.seed, args.smoke)
            for _ in range(SETUP_CHILDREN)
        ]
        result.values["setup_s"] = core.median(setups)
        result.notes["setup_samples"] = setups
        run_untraced(args, state, result)
        result.notes["host.calib_mops"] = result.host.mops
        result.notes["calib_samples"] = len(result.host.samples)
        result.values["peak_rss_mb"] = core.peak_rss_mb()
        section = manifest["end_to_end"]

    metrics = core.metric_block(section, result.values, result.reasons)
    report(args, result, metrics)
    complete = all(entry["value"] is not None for entry in metrics.values())
    return 0 if result.failed == 0 and (complete or traced) else 1


def run_untraced(args, state, result: core.RunResult) -> None:
    if args.workload == SERVE_WORKLOAD:
        from benchkit import serveload

        traffic, reference = state
        serveload.run_untraced(args.seconds, traffic, reference, result)
    else:
        from benchkit import simload

        scale = simload.WARM_SCALE if args.smoke else simload.SCALE
        simload.run_untraced(args.workload, args.seed, args.seconds, scale, result)


def run_traced(args, state, result: core.RunResult) -> None:
    from benchkit import probes, serveload, simload

    spans = core.SpanLog()
    if args.workload == SERVE_WORKLOAD:
        traffic, reference = state
        # The sim/memory/isa numbers of the jobs this workload serves.
        simload.replay_reference(traffic.distinct, reference, result, spans)
        serveload.run_traced(args.seconds, traffic, reference, result, spans)
    else:
        scale = simload.WARM_SCALE if args.smoke else simload.SCALE
        simload.run_traced(args.workload, args.seed, args.seconds * TRACED_PASS_FACTOR,
                           scale, result, spans)
        result.probe(serveload.SERVE_METRICS,
                     lambda: serveload.serve_probe(args.seed, result, spans))
    probes.run_all(result, spans)
    result.values["host.calib_mops"] = result.host.mops
    spans.dump(
        core.OUT_DIR / f"trace-{args.workload}.json",
        {"workload": args.workload, "seed": args.seed,
         "host": core.host_block(result.host.mops)},
    )


def report(args, result: core.RunResult, metrics: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON result.

    The host-time readings as measured, before normalising (``raw`` in the
    notes), are printed by name under their ``norm_`` rows, but are not in
    the result line, which holds exactly the metrics ``BENCHMARK.json`` bounds.
    """
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("# host " + json.dumps(core.host_block(result.host.mops), sort_keys=True))
    print("# notes " + json.dumps(result.notes, sort_keys=True, default=str))
    for name, entry in metrics.items():
        if entry["value"] is None:
            print(f"metric {name} = null {entry['unit']}  ({entry['reason']})")
        else:
            print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    for name, value in result.notes.get("raw", {}).items():
        print(f"metric {name} = {value!r} {metrics['norm_' + name]['unit']}  "
              f"(as measured on this host)")
    attempted = max(1, result.attempted)
    print(f"metric failed_frac = {result.failed / attempted!r} ratio "
          f"({result.failed} of {attempted})")
    for failure in result.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))


# ----------------------------------------------------------------------
# All workloads, each in a fresh process
# ----------------------------------------------------------------------
def run_all(args) -> int:
    manifest = core.load_manifest()
    if program_missing():
        return 2
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]
    rows: dict = {}
    status = 0
    for workload in [w["name"] for w in manifest["workloads"]]:
        row = rows[workload] = {"end_to_end": {}, "per_layer": {}, "raw": {},
                                "attempted": 0, "failed": 0}
        for trace, seed in [(0, args.seed + i) for i in range(args.runs)] + [(1, args.seed)]:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, capture_output=True, text=True,
                                  env=core.child_env(), cwd=str(core.ROOT))
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stderr[-2000:])
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                outcome = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"# {workload} seed {seed} trace {trace}: no result", flush=True)
                status = 1
                continue
            row["attempted"] += outcome["attempted"]
            row["failed"] += outcome["failed"]
            bucket = row["per_layer" if trace else "end_to_end"]
            for name, entry in outcome["metrics"].items():
                bucket.setdefault(name, []).append(entry["value"])
            for line in lines:
                if line.startswith("# notes "):
                    for name, value in json.loads(line[8:]).get("raw", {}).items():
                        row["raw"].setdefault(name, []).append(value)
            print(f"# done {workload} seed {seed} trace {trace} "
                  f"failed {outcome['failed']}/{outcome['attempted']}", flush=True)
    document = {"host": core.host_block(), "run_seconds": seconds,
                "seed": args.seed, "smoke": args.smoke, "rows": rows}
    out = Path(args.out) if args.out else core.OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    compare.print_summary(document, manifest)
    print(f"# result set written to {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=SIM_WORKLOADS + (SERVE_WORKLOAD,))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small jobs and little traffic: checks the tool, not the program")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload when running all (seeds seed..seed+runs-1)")
    parser.add_argument("--out", help="where to write the result set when running all")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge result set B against A by each metric's bound")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1], core.load_manifest())
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = float(core.load_manifest()["run_seconds"])
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
