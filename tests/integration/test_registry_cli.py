"""Every registered grid: ``repro-rtc <grid>`` == sharded plan/run/merge.

For each experiment in :mod:`repro.experiments.registry`, at small
parameters and in every format it lists, the direct subcommand's report
must equal ``shard plan --shards 2`` → ``shard run`` × 2 →
``shard merge`` byte for byte. A toy experiment registered only here
shows that registering is all the wiring a new grid needs.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.experiments import registry, scenarios

#: Small parameters (two cells each) for every registered grid.
SMALL = {
    "table1": ["--seeds", "1", "--ratio", "0.3"],
    "compare": ["--seeds", "1", "--policy", "webrtc", "--policy", "adaptive"],
    "chaos": [
        "--scenario", "steady", "--fault", "feedback_blackout",
        "--policy", "adaptive", "--seeds", "1",
        "--duration", "10", "--fault-at", "4",
    ],
    "fleet": [
        "--scenario", "steady", "--seeds", "2",
        "--subscribers", "4", "--duration", "2",
    ],
    "sweep": ["--ratio", "0.3", "--seeds", "1"],
}


def _assert_direct_equals_merged(tmp_path, grid: str, argv: list[str]):
    experiment = registry.get(grid)
    plan = tmp_path / "plan.json"
    assert main(
        ["--no-cache", "shard", "plan", "--grid", grid, "--shards", "2",
         *argv, "-o", str(plan)]
    ) == 0
    for index in ("0", "1"):
        assert main(
            ["--no-cache", "shard", "run", str(plan), "--index", index,
             "--out", str(tmp_path / "shards")]
        ) == 0
    for fmt in experiment.formats:
        direct = tmp_path / f"direct.{fmt}"
        merged = tmp_path / f"merged.{fmt}"
        assert main(
            ["--cache-dir", str(tmp_path / "cache"), grid, *argv,
             "--format", fmt, "-o", str(direct)]
        ) == 0
        assert main(
            ["--no-cache", "shard", "merge", str(plan),
             "--dir", str(tmp_path / "shards"),
             "--out", str(tmp_path / "merged"),
             "--format", fmt, "-o", str(merged)]
        ) == 0
        assert direct.read_bytes() == merged.read_bytes(), (grid, fmt)


@pytest.mark.parametrize("grid", sorted(registry.EXPERIMENTS))
def test_subcommand_equals_sharded_merge(tmp_path, grid):
    _assert_direct_equals_merged(tmp_path, grid, SMALL[grid])


def _toy_rows(params: dict, results: list) -> list[tuple[int, float]]:
    return [
        (seed, result.mean_latency())
        for seed, result in zip(params["seeds"], results)
    ]


def _toy_format(params: dict, rows: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows) + "\n"
    return "".join(f"seed {seed}: {latency:.6f}\n" for seed, latency in rows)


TOY = registry.Experiment(
    name="toy",
    help="short step-drop sessions, mean latency per seed",
    params=(
        registry.Param(
            "seeds", "--seeds", int, (1, 2), "seeds 1..N", kind="seeds"
        ),
    ),
    build=lambda p: [
        dataclasses.replace(
            scenarios.step_drop_config(0.3, seed=seed), duration=4.0
        )
        for seed in p["seeds"]
    ],
    collect=_toy_rows,
    format=_toy_format,
    formats=("table", "json"),
)


def test_registering_is_the_only_wiring_a_new_grid_needs(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setitem(registry.EXPERIMENTS, "toy", TOY)
    assert main(["--no-cache", "toy"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed 1: ") and "seed 2: " in out
    _assert_direct_equals_merged(tmp_path, "toy", ["--seeds", "2"])
    assert main(["--no-cache", "toy", "--seeds", "0"]) == 2
