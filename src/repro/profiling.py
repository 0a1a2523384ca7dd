"""Profiling harness for the simulation hot path.

Runs one pinned session under :mod:`cProfile` and reduces the stats to
the top-N hotspot functions — the measurement loop behind every
optimization in the kernel and packet path (``repro-rtc profile``, and
the profile artifact uploaded by CI's perf-smoke step).

The JSON schema (``SCHEMA_VERSION``):

```
{
  "schema": 4,
  "session": {"policy", "drop_ratio", "duration", "seed", "kernel"},
  "perf": {"wall_seconds", "events_fired", "events_per_sec"},
  "totals": {"calls", "seconds"},
  "sort": "tottime" | "cumtime",
  "hotspots": [
    {"function", "file", "line", "calls", "tottime", "cumtime"},
    ...
  ]
}
```

``hotspots`` is sorted by the chosen key (self time by default —
cumulative time buries leaf hot loops under their callers). Per-layer
wall time is the layer ledger's job (``ledger/run.py --trace 1``), not
this report's.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import pstats
from dataclasses import dataclass

from .errors import ConfigError
from .experiments import scenarios
from .pipeline.config import PolicyName, SessionConfig
from .pipeline.session import RtcSession
from .simcore.backend import resolve_kernel

#: Bump when the JSON layout changes (consumers: CI artifact, tests).
#: v2: session gained ``kernel``. v4: the per-handler census tables
#: added in v2/v3 are gone (they charged work to whichever event fired).
SCHEMA_VERSION = 4

#: Default number of hotspot rows reported.
DEFAULT_TOP = 20

_SORT_KEYS = ("tottime", "cumtime")


@dataclass(frozen=True)
class Hotspot:
    """One function's aggregate cost in the profiled run."""

    function: str
    file: str
    line: int
    calls: int
    tottime: float
    cumtime: float


@dataclass(frozen=True)
class ProfileReport:
    """Profiling result for one session run."""

    policy: str
    drop_ratio: float
    duration: float
    seed: int
    kernel: str
    wall_seconds: float
    events_fired: int
    total_calls: int
    total_seconds: float
    sort: str
    hotspots: tuple[Hotspot, ...]

    @property
    def events_per_sec(self) -> float:
        """Simulation event throughput of the profiled run."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_fired / self.wall_seconds

    def to_dict(self) -> dict:
        """JSON-ready dict following the module schema."""
        return {
            "schema": SCHEMA_VERSION,
            "session": {
                "policy": self.policy,
                "drop_ratio": self.drop_ratio,
                "duration": self.duration,
                "seed": self.seed,
                "kernel": self.kernel,
            },
            "perf": {
                "wall_seconds": self.wall_seconds,
                "events_fired": self.events_fired,
                "events_per_sec": self.events_per_sec,
            },
            "totals": {
                "calls": self.total_calls,
                "seconds": self.total_seconds,
            },
            "sort": self.sort,
            "hotspots": [
                dataclasses.asdict(spot) for spot in self.hotspots
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The report serialized as JSON."""
        return json.dumps(self.to_dict(), indent=indent)

    def format_text(self) -> str:
        """Human-readable table of the hotspots."""
        lines = [
            f"profile: policy={self.policy} drop_ratio={self.drop_ratio} "
            f"duration={self.duration}s seed={self.seed} "
            f"kernel={self.kernel}",
            f"wall: {self.wall_seconds:.3f}s  "
            f"events: {self.events_fired}  "
            f"({self.events_per_sec:,.0f} events/s)",
            f"calls: {self.total_calls}  "
            f"profiled: {self.total_seconds:.3f}s  sort: {self.sort}",
            "",
            f"{'calls':>9}  {'tottime':>8}  {'cumtime':>8}  function",
        ]
        for spot in self.hotspots:
            lines.append(
                f"{spot.calls:>9}  {spot.tottime:>8.3f}  "
                f"{spot.cumtime:>8.3f}  {spot.function}"
            )
        return "\n".join(lines) + "\n"


def pinned_config(
    policy: str = "adaptive",
    drop_ratio: float = 0.2,
    duration: float = 25.0,
    seed: int = 1,
) -> SessionConfig:
    """The session configuration the profiler runs: the paper's step-drop
    scenario, fully determined by these four knobs."""
    config = scenarios.step_drop_config(drop_ratio, seed=seed)
    return dataclasses.replace(
        config, policy=PolicyName(policy), duration=duration
    )


def profile_session(
    policy: str = "adaptive",
    drop_ratio: float = 0.2,
    duration: float = 25.0,
    seed: int = 1,
    top: int = DEFAULT_TOP,
    sort: str = "tottime",
) -> ProfileReport:
    """Run one pinned session under cProfile and summarize it.

    Args:
        policy: adaptation policy to run.
        drop_ratio: bandwidth drop ratio of the step scenario.
        duration: simulated seconds.
        seed: session RNG seed.
        top: number of hotspot rows to keep.
        sort: ``"tottime"`` (self time, default) or ``"cumtime"``.
    """
    if top < 1:
        raise ConfigError(f"top must be >= 1, got {top!r}")
    if sort not in _SORT_KEYS:
        raise ConfigError(
            f"sort must be one of {_SORT_KEYS}, got {sort!r}"
        )
    config = pinned_config(policy, drop_ratio, duration, seed)
    session = RtcSession(config)
    profiler = cProfile.Profile()
    profiler.enable()
    result = session.run()
    profiler.disable()

    stats = pstats.Stats(profiler)
    total_calls = stats.total_calls  # type: ignore[attr-defined]
    total_seconds = stats.total_tt  # type: ignore[attr-defined]
    sort_index = 2 if sort == "tottime" else 3
    rows = sorted(
        stats.stats.items(),  # type: ignore[attr-defined]
        key=lambda item: item[1][sort_index],
        reverse=True,
    )[:top]
    hotspots = tuple(
        Hotspot(
            function=f"{filename}:{line}({name})",
            file=filename,
            line=line,
            calls=int(ncalls),
            tottime=float(tottime),
            cumtime=float(cumtime),
        )
        for (filename, line, name), (
            _primitive,
            ncalls,
            tottime,
            cumtime,
            _callers,
        ) in rows
    )

    perf = result.perf
    assert perf is not None  # sessions run inline always attach perf
    kernel = resolve_kernel(config.kernel).value
    return ProfileReport(
        policy=policy,
        drop_ratio=drop_ratio,
        duration=duration,
        seed=seed,
        kernel=kernel,
        wall_seconds=perf.wall_seconds,
        events_fired=perf.events_fired,
        total_calls=int(total_calls),
        total_seconds=float(total_seconds),
        sort=sort,
        hotspots=hotspots,
    )
