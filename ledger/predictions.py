"""Which end-to-end metric each layer should move, and the traced check.

:data:`PREDICTIONS` is written down before any optimisation: a change
to a layer should move the listed metric on the listed workloads, and
leave every other (metric, workload) pair within its bound.

Running this module makes one short traced run per workload and checks
the predictions a single traced run can confirm::

    python3 ledger/predictions.py --seconds 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: layer -> [(end-to-end metric, workloads it should move on)].
PREDICTIONS = {
    "simcore": [("media_s_per_s", ("table1", "fleet"))],
    "netsim": [("media_s_per_s", ("fleet", "table1"))],
    "cc": [("media_s_per_s", ("fleet", "table1"))],
    "rtp": [("media_s_per_s", ("table1",)), ("session_p50_ms", ("trace",))],
    "codec": [("media_s_per_s", ("table1",)), ("session_p50_ms", ("trace",))],
    "core": [("media_s_per_s", ("table1",)), ("session_p50_ms", ("trace",))],
    "sfu": [("media_s_per_s", ("fleet",))],
    "fleet": [("media_s_per_s", ("fleet",))],
    "faults": [("media_s_per_s", ("sweep",))],
    "telemetry": [("session_p50_ms", ("trace",))],
    "pipeline": [("replay_s", ("sweep",)), ("media_s_per_s", ("sweep",))],
    "metrics": [("media_s_per_s", ("table1",)), ("session_p50_ms", ("trace",))],
}

WORKLOAD_NAMES = ("table1", "fleet", "sweep", "trace")


def check(layers: dict[str, dict[str, float]]) -> list[str]:
    """Failures of the traced-run predictions; ``layers`` maps each
    workload to its per-layer metric values."""
    failures = []

    def only(metric: str, allowed: tuple[str, ...]) -> None:
        for workload, values in layers.items():
            positive = values[metric] > 0
            if positive != (workload in allowed):
                failures.append(
                    f"{metric} = {values[metric]!r} on {workload}; "
                    f"expected > 0 only on {', '.join(allowed)}"
                )

    only("sfu.self_s", ("fleet",))
    only("fleet.self_s", ("fleet",))
    only("faults.self_s", ("sweep",))
    only("telemetry.self_s", ("trace",))
    shares = {w: v["pipeline.share"] for w, v in layers.items()}
    if max(shares, key=shares.get) != "sweep":
        failures.append(f"pipeline.share is not largest on sweep: {shares}")
    if not layers["fleet"]["codec.share"] < layers["table1"]["codec.share"]:
        failures.append(
            "codec.share on fleet "
            f"{layers['fleet']['codec.share']!r} is not below table1's "
            f"{layers['table1']['codec.share']!r}"
        )
    return failures


def traced(workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One ``--trace 1`` run of ``run.py``; its per-layer values."""
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: output checks failed\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    layers = {w: traced(w, args.seed, args.seconds) for w in WORKLOAD_NAMES}
    names = [n for n in layers["table1"] if n.endswith((".share", "overhead"))]
    print(f"{'metric':<28}" + "".join(f"{w:>10}" for w in WORKLOAD_NAMES))
    for name in names:
        print(f"{name:<28}" + "".join(f"{layers[w][name]:>10.4f}" for w in WORKLOAD_NAMES))
    failures = check(layers)
    for failure in failures:
        print(f"PREDICTION FAILED: {failure}")
    if not failures:
        print("all traced-run predictions hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
