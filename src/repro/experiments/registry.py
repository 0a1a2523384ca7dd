"""The experiment registry: each shardable grid, declared once.

Every grid of the reproduced evaluation — Table 1's severity sweep, the
policy comparison, the fault matrix, the SFU fleet and the drop sweep —
is one :class:`Experiment` record here: a typed parameter spec, the
driver calls that enumerate its configs and fold results into a report,
and the formats it renders. Everything else is derived from the
records:

* the ``repro-rtc <name>`` subcommands and the grid flags of
  ``repro-rtc shard plan`` (:mod:`repro.cli`);
* shard planning, re-expansion and merged rendering
  (:func:`repro.pipeline.shards.grid_def` looks grids up here);
* :func:`run`, the library entry point: normalize → build →
  :func:`~repro.pipeline.parallel.run_many` → report.

So registering a new :class:`Experiment` makes it runnable, cacheable,
supervised and shardable with no other wiring, and a single-host run
and a merged sharded run render through the same ``collect``/``format``
pair — byte-identical reports by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from ..errors import ConfigError, TraceError
from ..pipeline import sweeps
from ..pipeline.config import PolicyName
from ..pipeline.parallel import run_many
from . import comparison, fleet, robustness, scenarios, table1

#: Choices of every policy-valued parameter.
POLICY_NAMES = tuple(p.value for p in PolicyName)


@dataclass(frozen=True)
class Param:
    """One typed grid parameter.

    ``kind`` is ``one`` (a scalar), ``many`` (a non-empty list; the CLI
    flag is repeatable) or ``seeds`` (a non-empty seed list; the CLI
    flag takes ``N`` for seeds ``1..N``). ``default`` fills the
    parameter only when its key is *absent*: an explicit zero or empty
    value is validated like any other.
    """

    name: str
    flag: str
    type: type
    default: object
    help: str
    kind: str = "one"
    choices: tuple | None = None

    @property
    def item(self) -> str:
        """What one value is called in messages (``seed``, ``policy``)."""
        if self.kind == "seeds":
            return "seed"
        return self.flag.lstrip("-").replace("-", " ")

    def canonical(self, grid: str, value: object) -> object:
        """``value`` in the JSON-ready form plans store.

        Raises:
            ConfigError: wrong type, unknown choice, or an empty list.
        """
        if self.kind == "one":
            return self._convert(grid, value)
        if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
            raise ConfigError(
                f"{grid}: {self.name} must be a list, got {value!r}"
            )
        items = [self._convert(grid, item) for item in value]
        if not items:
            raise ConfigError(f"{grid}: need at least one {self.item}")
        return items

    def _convert(self, grid: str, value: object) -> object:
        if isinstance(value, enum.Enum):
            value = value.value
        try:
            converted = self.type(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{grid}: {self.item} {value!r} is not a "
                f"{self.type.__name__}"
            ) from None
        if self.choices is not None and converted not in self.choices:
            raise ConfigError(
                f"{grid}: unknown {self.item} {converted!r} "
                f"(known: {', '.join(map(str, self.choices))})"
            )
        return converted


@dataclass(frozen=True)
class Experiment:
    """One grid: its parameters, its batch, and its report.

    ``build(params)`` enumerates the config batch deterministically;
    ``collect(params, results)`` folds a result list in ``build`` order
    (quarantined cells as
    :class:`~repro.pipeline.supervisor.FailedSession`) into the
    driver's rows or report; ``format(params, report, fmt)`` renders it
    in one of ``formats``. ``count(report)`` is the number of ``noun``
    a report holds. ``quick`` is a pinned tiny grid (overriding the
    given parameters) and ``listing(params)`` an alternative to
    running, where the CLI offers them.
    """

    name: str
    help: str
    params: tuple[Param, ...]
    build: Callable[[dict], list]
    collect: Callable[[dict, list], object]
    format: Callable[[dict, object, str], str]
    formats: tuple[str, ...] = ("table", "json", "csv")
    noun: str = "rows"
    count: Callable[[object], int] = len
    quick: dict | None = None
    listing: Callable[[dict], str] | None = None
    list_help: str = ""

    def normalize(self, params: dict) -> dict:
        """Validate ``params`` into the canonical dict a plan stores.

        Two spellings of the same grid normalize to the same dict, so
        their plans are byte-identical.

        Raises:
            ConfigError: an unknown key or an invalid value.
        """
        known = [p.name for p in self.params]
        unknown = sorted(set(params) - set(known))
        if unknown:
            raise ConfigError(
                f"{self.name}: unknown parameter(s) {', '.join(unknown)} "
                f"(known: {', '.join(known)})"
            )
        return {
            p.name: p.canonical(self.name, params.get(p.name, p.default))
            for p in self.params
        }

    def plan(self, params: dict) -> tuple[dict, list]:
        """Normalize ``params`` and enumerate the config batch.

        Returns the canonical params and the batch, in ``build`` order.

        Raises:
            ConfigError: an unknown key or an invalid value, including
                one the scenario generators reject while building
                (a drop ratio outside (0, 1)).
        """
        canonical = self.normalize(params)
        try:
            return canonical, self.build(canonical)
        except TraceError as exc:
            raise ConfigError(f"{self.name}: {exc}") from None

    def render(self, params: dict, results: list, fmt: str) -> str:
        """The report text for a full result list (``build`` order)."""
        return self.format(params, self.collect(params, results), fmt)


#: Registered experiments by name, in registration (CLI) order.
EXPERIMENTS: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (names are unique)."""
    if experiment.name in EXPERIMENTS:
        raise ConfigError(f"experiment {experiment.name!r} already registered")
    EXPERIMENTS[experiment.name] = experiment
    return experiment


def get(name: str) -> Experiment:
    """Look up an experiment by name.

    Raises:
        ConfigError: for an unknown name.
    """
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown grid {name!r} "
            f"(available: {', '.join(sorted(EXPERIMENTS))})"
        ) from None


def run(name: str, params: dict | None = None) -> object:
    """Run one grid in-process and return its rows or report.

    Sessions go through :func:`~repro.pipeline.parallel.run_many`, so
    the configured workers, cache and supervisor apply.

    Raises:
        ConfigError: unknown grid or invalid parameters.
    """
    experiment = get(name)
    canonical, batch = experiment.plan(dict(params or {}))
    return experiment.collect(canonical, run_many(batch))


# ----------------------------------------------------------------------
# Shared parameters
# ----------------------------------------------------------------------
def _seeds(default: tuple[int, ...]) -> Param:
    return Param("seeds", "--seeds", int, default, "seeds 1..N per point",
                 kind="seeds")


def _policies(default: tuple[PolicyName, ...]) -> Param:
    return Param("policies", "--policy", str, tuple(p.value for p in default),
                 "policy to include", kind="many", choices=POLICY_NAMES)


_RATIOS = Param("ratios", "--ratio", float, scenarios.TABLE1_DROP_RATIOS,
                "drop ratio to include", kind="many")
_BASELINE = Param("baseline", "--baseline", str, PolicyName.WEBRTC.value,
                  "baseline policy", choices=POLICY_NAMES)


def _as_policies(params: dict) -> tuple[PolicyName, ...]:
    return tuple(PolicyName(p) for p in params["policies"])


# ----------------------------------------------------------------------
# table1 — the headline severity sweep
# ----------------------------------------------------------------------
def _table1_plan(params: dict):
    return table1.plan_batch(
        ratios=tuple(params["ratios"]),
        seeds=tuple(params["seeds"]),
        baseline=PolicyName(params["baseline"]),
    )


register(Experiment(
    name="table1",
    help="regenerate the headline table",
    params=(_seeds(scenarios.TABLE1_SEEDS), _RATIOS, _BASELINE),
    build=lambda p: _table1_plan(p)[0],
    collect=lambda p, results: table1.rows_from_results(
        results, _table1_plan(p)[1]
    ),
    format=lambda p, rows, fmt: table1.render(rows, fmt),
))


# ----------------------------------------------------------------------
# compare — every policy on one scenario
# ----------------------------------------------------------------------
register(Experiment(
    name="compare",
    help="compare all policies",
    params=(
        Param("drop_ratio", "--drop-ratio", float, 0.2,
              "scenario severity (surviving capacity fraction)"),
        _seeds((1, 2, 3)),
        _policies(comparison.ALL_POLICIES),
    ),
    build=lambda p: comparison.plan_batch(
        p["drop_ratio"], tuple(p["seeds"]), _as_policies(p)
    ),
    collect=lambda p, results: comparison.rows_from_results(
        results, tuple(p["seeds"]), _as_policies(p)
    ),
    format=lambda p, rows, fmt: comparison.format_comparison(
        rows, f"All policies, drop to {p['drop_ratio']:.0%}"
    ) + "\n",
    formats=("table",),
))


# ----------------------------------------------------------------------
# chaos — the scenario × fault robustness matrix
# ----------------------------------------------------------------------
def _chaos_args(params: dict) -> dict:
    return dict(
        scenario_names=tuple(params["scenarios"]),
        fault_names=tuple(params["faults"]),
        policies=_as_policies(params),
        seeds=tuple(params["seeds"]),
        duration=params["duration"],
        fault_at=params["fault_at"],
    )


def _list_faults(params: dict) -> str:
    suite = robustness.fault_suite(params["fault_at"])
    return "".join(
        f"{name:<22} {', '.join(spec.label() for spec in schedule)}\n"
        for name, schedule in suite.items()
    )


register(Experiment(
    name="chaos",
    help="run the fault-injection robustness matrix",
    params=(
        Param("scenarios", "--scenario", str, robustness.DEFAULT_SCENARIOS,
              "scenario to include", kind="many",
              choices=tuple(sorted(robustness.SCENARIOS))),
        Param("faults", "--fault", str, robustness.DEFAULT_FAULTS,
              "fault schedule to include", kind="many",
              choices=robustness.FAULT_NAMES),
        _policies(robustness.DEFAULT_POLICIES),
        _seeds((1, 2)),
        Param("duration", "--duration", float, robustness.DURATION,
              "session length in seconds"),
        Param("fault_at", "--fault-at", float, robustness.FAULT_AT,
              "when fault windows open, in seconds"),
    ),
    build=lambda p: robustness.plan_batch(**_chaos_args(p)),
    collect=lambda p, results: robustness.report_from_results(
        results, **_chaos_args(p)
    ),
    format=lambda p, report, fmt: robustness.render(report, fmt),
    noun="cells",
    count=lambda report: len(report.cells),
    quick={"scenarios": ["steady"],
           "faults": ["feedback_blackout", "capacity_outage"],
           "policies": ["adaptive"], "seeds": [1], "duration": 14.0},
    listing=_list_faults,
    list_help="list the canonical fault schedules instead of running",
))


# ----------------------------------------------------------------------
# fleet — SFU fleet population scenarios
# ----------------------------------------------------------------------
def _fleet_report(params: dict, results: list) -> fleet.FleetReport:
    scenario_names, seeds = tuple(params["scenarios"]), tuple(params["seeds"])
    return fleet.FleetReport(
        scenarios=scenario_names,
        seeds=seeds,
        subscribers=params["subscribers"],
        duration=params["duration"],
        cells=fleet.rows_from_results(results, scenario_names, seeds),
    )


def _list_fleet_scenarios(params: dict) -> str:
    lines = []
    for name in sorted(fleet.SCENARIOS):
        doc = (fleet.SCENARIOS[name].__doc__ or "").strip()
        lines.append(f"{name:<22} {doc.splitlines()[0] if doc else ''}\n")
    return "".join(lines)


register(Experiment(
    name="fleet",
    help="run city-scale SFU fleet population scenarios "
    "(see docs/fleet.md)",
    params=(
        Param("scenarios", "--scenario", str, fleet.DEFAULT_SCENARIOS,
              "population scenario to include", kind="many",
              choices=tuple(sorted(fleet.SCENARIOS))),
        _seeds((1,)),
        Param("subscribers", "--subscribers", int, fleet.SUBSCRIBERS,
              "total subscriber population, split across the two regions"),
        Param("duration", "--duration", float, fleet.DURATION,
              "capture duration in seconds"),
    ),
    build=lambda p: fleet.plan_batch(
        tuple(p["scenarios"]), tuple(p["seeds"]),
        p["subscribers"], p["duration"],
    ),
    collect=_fleet_report,
    format=lambda p, report, fmt: fleet.render(report, fmt),
    noun="fleet cells",
    count=lambda report: len(report.cells),
    quick={"scenarios": ["steady", "regional_degradation"], "seeds": [1],
           "subscribers": 20, "duration": 8.0},
    listing=_list_fleet_scenarios,
    list_help="list the population scenarios instead of running",
))


# ----------------------------------------------------------------------
# sweep — baseline vs adaptive per (ratio, seed) point
# ----------------------------------------------------------------------
register(Experiment(
    name="sweep",
    help="run the per-seed drop-severity sweep (baseline vs adaptive)",
    params=(_RATIOS, _seeds((1, 2, 3)), _BASELINE),
    build=lambda p: sweeps.plan_drop_sweep(
        tuple(p["ratios"]), tuple(p["seeds"]), PolicyName(p["baseline"])
    ),
    collect=lambda p, results: sweeps.rows_from_drop_sweep(
        results, tuple(p["ratios"]), tuple(p["seeds"])
    ),
    format=lambda p, rows, fmt: sweeps.render_drop_sweep(rows, fmt),
))
