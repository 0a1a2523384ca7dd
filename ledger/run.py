"""Layer ledger: the repository's benchmark.

Run from the repository root::

    python3 ledger/run.py --workload table1 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs two untraced units (warm-up and reference), then
traced units for ``--seconds``, and reports per-layer metrics (per
unit). Workloads,
metrics and the layer predictions are described in ``ledger/README.md``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every cell ran and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times (fresh interpreters) per run,
#: half before the units and half after them, each followed by the
#: reference set-up.
SETUP_REPEATS = 8

#: Reference set-up time that ``setup_s`` is scaled to.
SETUP_REFERENCE_S = 0.2

#: Samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it; the maximum when there are
    too few samples for such a percentile to sit above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1)


def probe(*args: str) -> float:
    """Seconds one ``setup_probe.py`` run took, timed inside it."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """``repeats`` pairs of (set-up seconds, reference set-up seconds),
    each in a fresh interpreter, one after the other."""
    return [(probe(workload, str(seed)), probe("reference")) for _ in range(repeats)]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_loop(workload, inputs, work: Path, seconds: float, watch) -> list:
    """Closed loop: units back to back until ``seconds`` have passed."""
    units = []
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(workload.run_unit(inputs, work, watch))
    return units


def fold_checks(units) -> tuple[int, int, list]:
    """Attempted, failed and problems over units, plus the digest check:
    every unit (traced or not) rendered the same report."""
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]
    digests = {u.digest for u in units}
    attempted += 1
    if len(digests) != 1 or "" in digests:
        failed += 1
        problems.append(f"output digest differs across units: {sorted(digests)}")
    return attempted, failed, problems


def end_to_end(units, setup: list[tuple[float, float]], watch) -> dict:
    """The end-to-end metrics: name -> (reported value, measured value,
    unit, samples). Laps under a second are reported at reference speed
    (``meter.py``), longer laps as measured. ``setup_s`` is reported at
    the speed where the reference set-up takes :data:`SETUP_REFERENCE_S`."""

    def both(metric):
        return metric(watch.report), metric(lambda seconds, _speed: seconds)

    def cells(report):
        return [report(*lap) for u in units for lap in u.cells]

    def replays(report):
        best = [min(report(*lap) for lap in u.replays) for u in units if u.replays]
        return best or [0.0]

    media = sum(u.media_s for u in units)
    n_cells = sum(len(u.cells) for u in units)
    setup_median = statistics.median(seconds for seconds, _reference in setup)
    reference_median = statistics.median(reference for _seconds, reference in setup)
    return {
        "setup_s": (
            setup_median * SETUP_REFERENCE_S / reference_median,
            setup_median,
            "s",
            len(setup),
        ),
        "media_s_per_s": (
            *both(lambda report: media / sum(report(*lap) for u in units for lap in u.cold)),
            "1/s",
            len(units),
        ),
        "session_p50_ms": (
            *both(lambda report: 1e3 * statistics.median(cells(report))),
            "ms",
            n_cells,
        ),
        "session_tail_ms": (*both(lambda report: 1e3 * tail(cells(report))[0]), "ms", n_cells),
        "replay_s": (
            *both(lambda report: statistics.median(replays(report))),
            "s",
            sum(1 for u in units if u.replays),
        ),
        "peak_rss_mb": (*both(lambda _report: peak_rss_mb()), "MiB", 1),
    }


def per_layer(totals: dict, units: int, wall: float, overhead: float) -> dict:
    """The per-layer metrics, per traced unit; ``wall`` is the traced
    wall time of all ``units``."""
    from tracer import LANE, LAYERS, ROOT as ROOT_LABEL

    self_s, calls, counts = totals["self_s"], totals["calls"], totals["counts"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / units, "s")
        metrics[f"{layer}.share"] = (self_s.get(layer, 0.0) / wall, "ratio")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / units, "count")

    def count(name: str) -> float:
        return counts.get(name, 0) / units

    offered = count("netsim.packets_offered")
    dropped = count("netsim.packets_queue_dropped") + count("netsim.packets_channel_lost")
    hits, misses = count("pipeline.cache_hits"), count("pipeline.cache_misses")
    for name in (
        "simcore.events",
        "netsim.packets_offered",
        "rtp.feedback_reports",
        "rtp.retransmissions",
        "cc.updates",
        "codec.frames_encoded",
        "codec.frames_skipped",
        "sfu.packets_forwarded",
        "sfu.layer_switches",
        "pipeline.cache_hits",
        "pipeline.cache_misses",
        "telemetry.samples",
    ):
        metrics[name] = (count(name), "count")
    metrics["netsim.packets_dropped"] = (dropped, "count")
    metrics["netsim.delivered_ratio"] = (
        count("netsim.packets_delivered") / offered if offered else 0.0,
        "ratio",
    )
    metrics["pipeline.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0,
        "ratio",
    )
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.unattributed_share"] = (
        (self_s.get(LANE, 0.0) + self_s.get(ROOT_LABEL, 0.0)) / wall,
        "ratio",
    )
    return metrics


def traced_run(workload, inputs, work: Path, seconds: float):
    """Two untraced units (warm-up, reference), then traced units for
    ``seconds``.

    Returns the units (untraced first), the per-layer metrics and
    bookkeeping problems (wrappers left behind, self times that do not
    add up to the traced wall).
    """
    from meter import RawMeter
    from tracer import Ledger

    # The first unit in a process also pays one-time costs (lazy
    # imports, first allocations); the reference is the second.
    watch = RawMeter()
    warmup = workload.run_unit(inputs, work, watch)
    reference = workload.run_unit(inputs, work, watch)
    spool = work / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(spool)
    traced, wall = [], 0.0
    ledger.install()
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            with ledger.root() as root:
                traced.append(workload.run_unit(inputs, work, watch))
            wall += root.wall
    finally:
        ledger.uninstall()
    problems = []
    leftovers = ledger.leftovers()
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")
    totals = ledger.totals()
    accounted = sum(totals["self_s"].values())
    if abs(accounted - wall) > 1e-6 * wall + 1e-6:
        problems.append(f"self times sum to {accounted!r}, traced wall {wall!r}")
    overhead = statistics.median(u.wall_s for u in traced) / reference.wall_s
    metrics = per_layer(totals, len(traced), wall, overhead)
    return [warmup, reference] + traced, metrics, problems


def fingerprint(samples: dict) -> dict:
    """Where and how the numbers were measured."""
    from repro import _native
    from repro.simcore.backend import resolve_kernel

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel": resolve_kernel().value,
        "compiled_extension": _native.enabled(),
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"ledger: no repro package under {SRC}", file=sys.stderr)
        return 2
    # The host slows each CPU on its own, so the calibration kernel
    # must run on the CPU the work (and its worker processes) runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(HERE)]
    from meter import Meter
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"ledger: unknown workload {args.workload!r} "
            f"(known: {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]

    inputs = workload.build(args.seed)
    work = ROOT / ".ledger_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            units, layer_metrics, problems = traced_run(
                workload, inputs, work, args.seconds
            )
            attempted, failed, more = fold_checks(units)
            attempted += 1  # the ledger's own bookkeeping check
            failed += bool(problems)
            problems += more
            metrics = {k: (v, v, unit) for k, (v, unit) in layer_metrics.items()}
            samples = {"traced_units": len(units) - 2}
        else:
            watch = Meter()
            half = SETUP_REPEATS // 2
            setup = setup_seconds(workload.name, args.seed, half)
            units = run_loop(workload, inputs, work, args.seconds, watch)
            setup += setup_seconds(workload.name, args.seed, SETUP_REPEATS - half)
            attempted, failed, problems = fold_checks(units)
            e2e = end_to_end(units, setup, watch)
            metrics = {k: v[:3] for k, v in e2e.items()}
            samples = {k: v[3] for k, v in e2e.items()}
            samples["session_tail_percentile"] = tail(
                [seconds for u in units for seconds, _speed in u.cells]
            )[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"workload {workload.name}: {workload.why}")
    for name, (value, measured, unit) in metrics.items():
        note = f" (as measured {measured:.6f})" if measured != value else ""
        print(f"  {name:<32} {value:>16.6f} {unit:<6}{note}")
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    print("fingerprint " + json.dumps(fingerprint(samples), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, _measured, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
