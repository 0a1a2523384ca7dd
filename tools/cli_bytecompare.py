#!/usr/bin/env python3
"""Byte-compare the ``repro-rtc`` CLI between two source trees.

Runs a fixed list of invocations against a *base* and a *head* tree and
diffs what each one produced: stdout, exit code, and the files it
wrote (``-o`` reports, plan files). stderr is not compared (it carries
paths and progress notes). Each tree is a checkout root whose ``src/``
holds the ``repro`` package, or that ``src/`` directory itself::

    python tools/cli_bytecompare.py --base ../parent --head .

Every invocation runs in its own empty working directory with the
``REPRO_*`` environment cleared; runs of one tree share a private
result cache and manifest directory under a temporary directory
(cached results are bit-identical to fresh ones), so each small grid
simulates once per tree.

Invocations tagged ``fixed`` (invalid input that used to be swallowed
or crash and is now a usage error), ``new`` (a subcommand or flag the
base does not have) or ``removed`` (a flag the head no longer has) may
differ; every other invocation must match byte for byte. Exit status: 0 when nothing unexpected differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    """One CLI scenario: argv steps run in one directory, in order.

    ``outputs`` names the files (relative to the working directory)
    whose bytes are compared after the last step. ``allowed`` is
    ``""`` (must match), ``"fixed"``, ``"new"`` or ``"removed"``.
    """

    name: str
    steps: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...] = ()
    allowed: str = ""


def _one(name, *argv, outputs=(), allowed=""):
    return Invocation(name, (tuple(argv),), tuple(outputs), allowed)


# Small grids of every subcommand.
_GRIDS = {
    "table1": ("table1", "--seeds", "1"),
    "compare": ("compare", "--seeds", "1", "--drop-ratio", "0.3"),
    "chaos": ("chaos", "--quick"),
    "chaos-custom": (
        "chaos", "--scenario", "steady", "--fault", "link_flap",
        "--policy", "webrtc", "--seeds", "1", "--duration", "10",
        "--fault-at", "4",
    ),
    "fleet": ("fleet", "--quick"),
    "fleet-custom": (
        "fleet", "--scenario", "steady", "--seeds", "2",
        "--subscribers", "4", "--duration", "3",
    ),
    "sweep": ("sweep", "--ratio", "0.3", "--seeds", "1"),
}
_FORMATS = {"compare": ("table",)}


def _grid_invocations() -> list[Invocation]:
    out = []
    for name, argv in _GRIDS.items():
        command = argv[0]
        out.append(_one(
            name, *argv, allowed="new" if command == "sweep" else ""
        ))
        # compare gained --format/-o with the registry-derived CLI.
        new_flags = "new" if command in ("sweep", "compare") else ""
        for fmt in _FORMATS.get(command, ("table", "json", "csv")):
            out.append(_one(
                f"{name} --format {fmt}", *argv, "--format", fmt,
                allowed=new_flags,
            ))
        fmt = _FORMATS.get(command, ("json",))[0]
        out.append(_one(
            f"{name} --format {fmt} -o", *argv, "--format", fmt,
            "-o", "report.out", outputs=("report.out",), allowed=new_flags,
        ))
    return out


# Shard plans: stdout and -o, every grid.
_PLANS = {
    "table1": ("--seeds", "2"),
    "compare": ("--seeds", "1", "--policy", "webrtc", "--policy", "adaptive"),
    "chaos": ("--scenario", "steady", "--seeds", "1"),
    "fleet": ("--scenario", "steady", "--seeds", "2", "--subscribers", "8"),
    "sweep": ("--ratio", "0.3", "--ratio", "0.2", "--seeds", "2"),
}


def _plan_invocations() -> list[Invocation]:
    out = []
    for grid, extra in _PLANS.items():
        plan = ("shard", "plan", "--grid", grid, "--shards", "2")
        out.append(_one(f"shard plan {grid} defaults", *plan))
        out.append(_one(f"shard plan {grid}", *plan, *extra))
        # --striping is gone: plans always stripe by cost.
        out.append(_one(
            f"shard plan {grid} round-robin -o", *plan, *extra,
            "--striping", "round-robin", "-o", "plan.json",
            outputs=("plan.json",), allowed="removed",
        ))
    return out


def _merge_invocations() -> list[Invocation]:
    """plan → run both shards → merge, per grid and format."""
    out = []
    for grid, fmt in (("table1", "json"), ("compare", "table"),
                      ("chaos", "csv"), ("fleet", "table"),
                      ("sweep", "table"), ("sweep", "json"),
                      ("sweep", "csv")):
        steps = (
            ("shard", "plan", "--grid", grid, "--shards", "2",
             *_PLANS[grid], "-o", "plan.json"),
            ("shard", "run", "plan.json", "--index", "0", "--out", "shards"),
            ("shard", "run", "plan.json", "--index", "1", "--out", "shards"),
            ("shard", "merge", "plan.json", "--dir", "shards",
             "--out", "merged", "--format", fmt, "-o", "report.out"),
        )
        out.append(Invocation(
            f"shard plan/run/merge {grid} {fmt}", steps,
            ("plan.json", "report.out"),
        ))
    return out


def _other_invocations() -> list[Invocation]:
    return [
        _one("chaos --list", "chaos", "--list"),
        _one("chaos --list --fault-at 3", "chaos", "--list", "--fault-at", "3"),
        _one("fleet --list", "fleet", "--list"),
        _one("--kernel heap table1", "--kernel", "heap", "table1", "--seeds", "1"),
        _one("chaos --quick supervised", "chaos", "--quick",
             "--max-retries", "1"),
        # Errors: same exit code, no output.
        _one("chaos --seeds 0", "chaos", "--seeds", "0"),
        _one("fleet --seeds 0", "fleet", "--seeds", "0"),
        _one("fleet --subscribers 1", "fleet", "--subscribers", "1"),
        _one("chaos --duration 5", "chaos", "--duration", "5"),
        _one("chaos --fault bogus", "chaos", "--fault", "bogus"),
        _one("table1 --format xml", "table1", "--format", "xml"),
        _one("shard plan unknown grid", "shard", "plan", "--grid", "bogus",
             "--shards", "2"),
        _one("shard plan --shards 0", "shard", "plan", "--shards", "0"),
        _one("shard plan too many shards", "shard", "plan", "--grid",
             "compare", "--seeds", "1", "--policy", "adaptive",
             "--shards", "3"),
        # Explicit zero/empty values that used to fall back to defaults
        # (or run a NaN table, or crash) and are now usage errors or
        # planned as given.
        _one("table1 --seeds 0", "table1", "--seeds", "0", allowed="fixed"),
        _one("compare --seeds 0", "compare", "--seeds", "0", allowed="fixed"),
        _one("compare --drop-ratio 0", "compare", "--drop-ratio", "0",
             allowed="fixed"),
        _one("shard plan table1 --seeds 0", "shard", "plan", "--grid",
             "table1", "--shards", "2", "--seeds", "0", allowed="fixed"),
        _one("shard plan fleet --subscribers 0", "shard", "plan", "--grid",
             "fleet", "--shards", "2", "--subscribers", "0",
             allowed="fixed"),
        _one("shard plan fleet --duration 0", "shard", "plan", "--grid",
             "fleet", "--shards", "2", "--duration", "0", allowed="fixed"),
        _one("shard plan chaos --fault-at 0", "shard", "plan", "--grid",
             "chaos", "--shards", "2", "--fault-at", "0", allowed="fixed"),
        _one("shard plan compare --drop-ratio 0", "shard", "plan", "--grid",
             "compare", "--shards", "2", "--drop-ratio", "0",
             allowed="fixed"),
    ]


INVOCATIONS: tuple[Invocation, ...] = (
    *_grid_invocations(),
    *_other_invocations(),
    *_plan_invocations(),
    *_merge_invocations(),
)


def _source_dir(tree: str) -> Path:
    root = Path(tree).resolve()
    if (root / "src" / "repro").is_dir():
        return root / "src"
    if (root / "repro").is_dir():
        return root
    raise SystemExit(f"cli_bytecompare: no repro package under {root}")


def _run(invocation: Invocation, src: Path, state: Path, work: Path) -> dict:
    """Run every step in ``work``; stdout, exit codes and output bytes.

    Result cache and run manifests live under ``state``, never in the
    user's default cache directory.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(state / "cache")
    env["REPRO_MANIFEST_DIR"] = str(state / "runs")
    stdout: list[str] = []
    codes: list[int] = []
    for argv in invocation.steps:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
        )
        stdout.append(proc.stdout)
        codes.append(proc.returncode)
    files = {}
    for name in invocation.outputs:
        path = work / name
        files[name] = path.read_bytes() if path.is_file() else None
    return {"stdout": stdout, "codes": codes, "files": files}


def _differences(base: dict, head: dict) -> list[str]:
    notes = []
    if base["codes"] != head["codes"]:
        notes.append(f"exit codes {base['codes']} -> {head['codes']}")
    for step, (old, new) in enumerate(zip(base["stdout"], head["stdout"])):
        if old != new:
            notes.append(f"stdout of step {step + 1} differs")
    for name in sorted(base["files"]):
        if base["files"][name] != head["files"][name]:
            notes.append(f"file {name} differs")
    return notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base source tree")
    parser.add_argument("--head", required=True, help="head source tree")
    args = parser.parse_args(argv)
    trees = {"base": _source_dir(args.base), "head": _source_dir(args.head)}
    counts = {"identical": 0, "allowed": 0, "unexpected": 0}
    with tempfile.TemporaryDirectory(prefix="cli-bytecompare-") as tmp:
        scratch = Path(tmp)
        for index, invocation in enumerate(INVOCATIONS):
            outcome = {}
            for label, src in trees.items():
                work = scratch / f"{label}-{index:03d}"
                work.mkdir()
                outcome[label] = _run(
                    invocation, src, scratch / f"{label}-state", work
                )
            notes = _differences(outcome["base"], outcome["head"])
            if not notes:
                verdict = "same"
                counts["identical"] += 1
            elif invocation.allowed:
                verdict = invocation.allowed.upper()
                counts["allowed"] += 1
            else:
                verdict = "DIFF"
                counts["unexpected"] += 1
            codes = outcome["head"]["codes"]
            detail = f"  ({'; '.join(notes)})" if notes else ""
            print(f"{verdict:<5} exit {codes}  {invocation.name}{detail}")
            sys.stdout.flush()
    print(
        f"{len(INVOCATIONS)} invocations: {counts['identical']} identical, "
        f"{counts['allowed']} allowed differences, "
        f"{counts['unexpected']} unexpected differences"
    )
    return 1 if counts["unexpected"] else 0


if __name__ == "__main__":
    sys.exit(main())
