"""Run-to-run spread of the end-to-end metrics, as a share of the median.

Runs ``run.py`` once per seed on each workload and prints, per metric,
the median and the quartile distance ``(Q3 - Q1) / median`` next to the
metric's bound from ``BENCHMARK.json``::

    python3 ledger/spread.py --workloads fleet --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MEASURED = re.compile(r"\s+(?P<name>\S+)\s.*\(as measured (?P<value>[-+.\deE]+)\)")
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["wall:run"] = time.perf_counter() - start
    for line in lines:
        found = MEASURED.match(line)
        if found:
            values["measured:" + found["name"]] = float(found["value"])
    return values


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        runs = [one_run(workload, seed, args.seconds) for seed in args.seeds]
        longest = max(r["wall:run"] for r in runs)
        print(f"{workload} ({len(runs)} seeds, longest run {longest:.1f} s)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            worst = max(worst, spread / bound)
            measured = [r.get("measured:" + name, r[name]) for r in runs]
            m1, m_median, m3 = statistics.quantiles(measured, n=4)
            print(
                f"  {name:<16} median {median:>12.5f}  spread {spread:7.4f}"
                f"  bound {bound:5.2f}  spread/bound {spread / bound:5.2f}"
                f"  (as measured: spread {(m3 - m1) / m_median:7.4f})"
                f"  values {' '.join(f'{v:.5g}' for v in values)}"
            )
    print(f"worst spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
