"""The benchmark's four workloads.

Each workload turns ``--seed`` into a fixed input set (:meth:`build`,
the timed set-up) and runs it in *units*. A unit is one complete
command's worth of work: its cells run one after another (closed loop,
one process, ``workers=1``, the default kernel), its report is rendered,
and then the same unit is replayed from a result cache it filled. The
program sees only the configs built here and is driven through public
APIs: ``run_many``, ``RtcSession``, the shard fabric and the experiment
drivers' ``plan_batch``/``render`` functions.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib.util
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from meter import Meter

ROOT = Path(__file__).resolve().parents[1]

#: Table-1 shape gate: reductions must grow strictly from the mildest
#: drop to this row index, and later (saturated) rows may fall at most
#: ``SATURATION_PP`` percentage points below the best row.
SHAPE_GROWTH_ROWS = 4
SATURATION_PP = 5.0

#: The seed at which ``table1`` must reproduce ``golden_metrics.json``.
GOLDEN_SEED = 1


#: Warm replays per unit; a unit's replay time is the best of them
#: (a replay is short, so one scheduling hiccup can double it).
REPLAYS = 3


@dataclass
class Unit:
    """What one unit timed and checked.

    Every time is a ``(seconds, speed)`` lap from :class:`meter.Meter`,
    reported only once the run is over.
    """

    cells: list[tuple] = field(default_factory=list)
    cold: list[tuple] = field(default_factory=list)
    replays: list[tuple] = field(default_factory=list)
    media_s: float = 0.0
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        """Count one output check; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    @property
    def wall_s(self) -> float:
        """Measured seconds of the cold phase plus the replays."""
        return sum(seconds for seconds, _speed in self.cold + self.replays)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run_cells(unit: Unit, watch: Meter, run, configs) -> list:
    """Run cells one after another through ``run``, timing each; a cell
    that raises counts as failed and yields ``None``."""
    results = []
    watch.lap()
    for config in configs:
        unit.attempted += 1
        try:
            results.append(run(config))
        except Exception as exc:  # a failing cell is a result, not a crash
            unit.failed += 1
            unit.problems.append(f"cell failed: {type(exc).__name__}: {exc}")
            results.append(None)
        lap = watch.lap()
        unit.cells.append(lap)
        unit.cold.append(lap)
    return results


def _warm_replay(unit: Unit, watch: Meter, configs, results, cache_dir: Path, render):
    """Fill a cache with the unit's results, then time serving the whole
    unit from it and rendering the report again; returns the reports."""
    from repro.pipeline import parallel

    cache = parallel.ResultCache(cache_dir)
    for config, result in zip(configs, results):
        cache.put(config, result)
    texts = []
    for _ in range(REPLAYS):
        watch.lap()
        warm = parallel.run_many(configs, cache=cache)
        texts.append(render(warm))
        unit.replays.append(watch.lap())
    shutil.rmtree(cache_dir, ignore_errors=True)
    return texts


class Workload:
    """One named input family; subclasses fill in both hooks."""

    name = ""
    why = ""

    def build(self, seed: int):
        """The unit's inputs for ``seed`` (timed as set-up)."""
        raise NotImplementedError

    def run_unit(self, inputs, work: Path, watch: Meter) -> Unit:
        """Run one unit in scratch directory ``work``, timed by ``watch``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class Table1(Workload):
    name = "table1"
    why = (
        "the paper's headline step-drop grid: 5 severities x 3 seeds x "
        "{webrtc, adaptive}, telemetry off; the single-flow stack does "
        "the work"
    )

    def build(self, seed: int):
        from repro.experiments import table1

        seeds = (seed, seed + 1, seed + 2)
        configs, spans = table1.plan_batch(seeds=seeds)
        return {"seed": seed, "configs": configs, "spans": spans}

    def run_unit(self, inputs, work: Path, watch: Meter) -> Unit:
        from repro.experiments import table1
        from repro.pipeline import parallel

        unit = Unit()
        configs, spans = inputs["configs"], inputs["spans"]
        results = _run_cells(
            unit, watch, lambda c: parallel.run_many([c], cache=None)[0], configs
        )
        unit.media_s = sum(c.duration for c in configs)
        if None in results:
            return unit
        rows = table1.rows_from_results(results, spans)
        text = table1.render(rows, "json")
        unit.cold.append(watch.lap())
        unit.digest = _digest(text)
        self._check_rows(unit, rows, inputs["seed"])

        def render(warm):
            return table1.render(table1.rows_from_results(warm, spans), "json")

        replayed = _warm_replay(unit, watch, configs, results, work / "cache", render)
        unit.check(set(replayed) == {text}, "table1: warm replay differs from cold report")
        return unit

    @staticmethod
    def _check_rows(unit: Unit, rows, seed: int) -> None:
        for row in rows:
            unit.check(
                row.adaptive_latency <= row.baseline_latency,
                f"table1 shape: {row.label} adaptive latency "
                f"{row.adaptive_latency:.4f} > baseline {row.baseline_latency:.4f}",
            )
        reductions = [row.latency_reduction_pct for row in rows]
        growing = reductions[:SHAPE_GROWTH_ROWS]
        unit.check(
            all(a < b for a, b in zip(growing, growing[1:]))
            and min(reductions[SHAPE_GROWTH_ROWS:], default=max(reductions))
            >= max(reductions) - SATURATION_PP,
            f"table1 shape: reduction does not grow with severity {reductions}",
        )
        if seed == GOLDEN_SEED:
            golden = _check_golden_module()
            fresh = golden.rows_to_metrics(rows)
            pinned = json.loads((ROOT / "golden_metrics.json").read_text("utf-8"))
            drift = golden.compare(pinned, fresh)
            unit.check(not drift, "table1 golden: " + "; ".join(drift))


@functools.cache
def _check_golden_module():
    """The repository's golden gate, for its tolerances and compare."""
    spec = importlib.util.spec_from_file_location(
        "ledger_check_golden", ROOT / "tools" / "check_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
class Fleet(Workload):
    name = "fleet"
    why = (
        "two-region SFU fleet cells steady/churn/regional_degradation "
        "with 80 subscribers: sfu+fleet and shared downlinks, ~no codec"
    )

    SCENARIOS = ("steady", "churn", "regional_degradation")
    SUBSCRIBERS = 80

    def build(self, seed: int):
        from repro.experiments import fleet

        configs = fleet.plan_batch(
            self.SCENARIOS, seeds=(seed,), subscribers=self.SUBSCRIBERS
        )
        return {"seed": seed, "configs": configs}

    def _render(self, results, seed: int) -> str:
        from repro.experiments import fleet

        report = fleet.FleetReport(
            scenarios=self.SCENARIOS,
            seeds=(seed,),
            subscribers=self.SUBSCRIBERS,
            duration=fleet.DURATION,
            cells=fleet.rows_from_results(results, self.SCENARIOS, (seed,)),
        )
        return fleet.render(report, "json")

    def run_unit(self, inputs, work: Path, watch: Meter) -> Unit:
        from repro.pipeline import parallel

        unit = Unit()
        configs, seed = inputs["configs"], inputs["seed"]
        results = _run_cells(
            unit, watch, lambda c: parallel.run_many([c], cache=None)[0], configs
        )
        unit.media_s = sum(c.duration * self.SUBSCRIBERS for c in configs)
        if None in results:
            return unit
        text = self._render(results, seed)
        unit.cold.append(watch.lap())
        unit.digest = _digest(text)
        replayed = _warm_replay(
            unit, watch, configs, results, work / "cache", lambda r: self._render(r, seed)
        )
        unit.check(set(replayed) == {text}, "fleet: warm replay differs from cold report")
        return unit


# ----------------------------------------------------------------------
class Sweep(Workload):
    name = "sweep"
    why = (
        "chaos grid in 3 shards run one after another, merged and rendered "
        "cold, then replayed warm: faults, loss storms, dead links, shard fabric"
    )

    SHARDS = 3
    DURATION = 12.0
    FAULT_AT = 5.0

    def build(self, seed: int):
        from repro.experiments import robustness
        from repro.pipeline import shards

        params = {
            "scenarios": ["steady", "drop45"],
            "faults": list(robustness.FAULT_NAMES),
            "policies": ["adaptive", "webrtc"],
            "seeds": [seed],
            "duration": self.DURATION,
            "fault_at": self.FAULT_AT,
        }
        plan = shards.build_plan("chaos", params, self.SHARDS)
        return {"seed": seed, "params": params, "plan": plan}

    def _run_shards(self, plan, base: Path):
        """Run every shard, merge and render the merged report (a
        replay re-merges into the same directory, as a repeated
        ``repro-rtc shard merge`` does)."""
        from repro.pipeline import shards

        outcomes = [
            shards.run_shard(plan, index, base) for index in range(self.SHARDS)
        ]
        cache, manifest, _summary = shards.merge_shards(
            plan, [shards.shard_dir(base, i) for i in range(self.SHARDS)], base / "merged"
        )
        text, quarantined = shards.render_merged(plan, cache, manifest, "json")
        return outcomes, text, quarantined

    def run_unit(self, inputs, work: Path, watch: Meter) -> Unit:
        from repro.pipeline import shards

        unit = Unit()
        base = work / "shards"
        shutil.rmtree(base, ignore_errors=True)
        watch.lap()  # the cold lap starts after the benchmark's own clean-up
        plan = shards.build_plan("chaos", inputs["params"], self.SHARDS)
        outcomes, text, quarantined = self._run_shards(plan, base)
        shard_lap = watch.lap()
        unit.cold.append(shard_lap)
        configs = plan.configs()
        for results, supervisor in outcomes:
            unit.attempted += len(results)
            # Each cell's wall time as the supervisor saw it: submitted
            # to the shard's worker process until its result came back,
            # at the speed of the cold phase that contains it.
            # Quarantined cells have no wall time; they count through
            # ``quarantined`` below.
            unit.cells.extend(
                (record["wall_s"], shard_lap[1])
                for record in supervisor.manifest.records.values()
                if record["status"] == "ok"
            )
        unit.failed += quarantined
        if quarantined:
            unit.problems.append(f"sweep: {quarantined} cells quarantined")
        unit.media_s = sum(c.duration for c in configs)
        unit.digest = _digest(text)

        for _ in range(REPLAYS):
            watch.lap()
            warm, warm_text, _quarantined = self._run_shards(plan, base)
            unit.replays.append(watch.lap())
            executed = sum(s.stats.executed for _r, s in warm)
            cached = sum(s.stats.cached for _r, s in warm)
            unit.check(
                executed == 0 and cached == len(configs),
                f"sweep: warm replay hit {cached}/{len(configs)} cells, "
                f"executed {executed}",
            )
            unit.check(warm_text == text, "sweep: warm render differs from cold render")
        shutil.rmtree(base, ignore_errors=True)
        return unit


# ----------------------------------------------------------------------
class Trace(Workload):
    name = "trace"
    why = (
        "interactive step-drop sessions one at a time with telemetry on, "
        "exported as repro-rtc trace does; a user waits on each"
    )

    def build(self, seed: int):
        from repro.experiments import scenarios
        from repro.pipeline.config import PolicyName

        configs = [
            dataclasses.replace(
                scenarios.step_drop_config(ratio, seed=seed),
                policy=PolicyName.ADAPTIVE,
                enable_telemetry=True,
            )
            for ratio in scenarios.TABLE1_DROP_RATIOS
        ]
        return {"seed": seed, "configs": configs}

    def run_unit(self, inputs, work: Path, watch: Meter) -> Unit:
        from repro.pipeline.session import RtcSession
        from repro.telemetry import export

        unit = Unit()
        configs = inputs["configs"]
        texts: list[str] = []

        def session_and_export(config):
            result = RtcSession(config).run()
            texts.append(export.export_text(result.traces, fmt="jsonl"))
            return result

        results = _run_cells(unit, watch, session_and_export, configs)
        unit.media_s = sum(c.duration for c in configs)
        if None in results:
            return unit
        text = "".join(texts)
        unit.digest = _digest(text)

        def render(warm):
            return "".join(export.export_text(r.traces, fmt="jsonl") for r in warm)

        replayed = _warm_replay(unit, watch, configs, results, work / "cache", render)
        unit.check(set(replayed) == {text}, "trace: warm replay differs from cold export")
        return unit


WORKLOADS = {w.name: w for w in (Table1(), Fleet(), Sweep(), Trace())}
