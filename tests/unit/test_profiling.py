"""The profiling harness: report schema, validation, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro import profiling
from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.simcore.backend import resolve_kernel
from repro.profiling import (
    DEFAULT_TOP,
    SCHEMA_VERSION,
    pinned_config,
    profile_session,
)


def test_pinned_config_is_deterministic():
    a = pinned_config("webrtc", 0.3, 8.0, seed=4)
    b = pinned_config("webrtc", 0.3, 8.0, seed=4)
    assert a == b
    assert a.policy.value == "webrtc"
    assert a.duration == 8.0
    assert a.seed == 4


def test_profile_session_validates_arguments():
    with pytest.raises(ConfigError):
        profile_session(top=0)
    with pytest.raises(ConfigError):
        profile_session(sort="ncalls")


def test_profile_report_json_schema(monkeypatch):
    sessions = []

    class CountingSession(profiling.RtcSession):
        def __init__(self, config):
            sessions.append(config)
            super().__init__(config)

    monkeypatch.setattr(profiling, "RtcSession", CountingSession)
    report = profile_session(
        policy="webrtc", duration=3.0, seed=2, top=5
    )
    # One profiled session; no second run for per-handler tables.
    assert len(sessions) == 1
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "schema", "session", "perf", "totals", "sort", "hotspots",
    }
    assert payload["schema"] == SCHEMA_VERSION == 4
    assert payload["session"] == {
        "policy": "webrtc",
        "drop_ratio": 0.2,
        "duration": 3.0,
        "seed": 2,
        "kernel": resolve_kernel().value,
    }
    perf = payload["perf"]
    assert perf["wall_seconds"] > 0
    assert perf["events_fired"] > 0
    assert perf["events_per_sec"] == pytest.approx(
        perf["events_fired"] / perf["wall_seconds"]
    )
    assert payload["totals"]["calls"] > 0
    assert payload["totals"]["seconds"] > 0
    assert payload["sort"] == "tottime"
    hotspots = payload["hotspots"]
    assert 0 < len(hotspots) <= 5
    for spot in hotspots:
        assert set(spot) == {
            "function", "file", "line", "calls", "tottime", "cumtime",
        }
    # Sorted by self time, descending.
    tottimes = [spot["tottime"] for spot in hotspots]
    assert tottimes == sorted(tottimes, reverse=True)


def test_profile_report_cumtime_sort():
    report = profile_session(
        policy="webrtc", duration=2.0, seed=1, top=4, sort="cumtime"
    )
    cumtimes = [spot.cumtime for spot in report.hotspots]
    assert cumtimes == sorted(cumtimes, reverse=True)


def test_profile_text_format_lists_hotspots():
    report = profile_session(policy="webrtc", duration=2.0, top=3)
    text = report.format_text()
    assert "policy=webrtc" in text
    assert "events/s" in text
    assert "tottime" in text
    # The output ends at the hotspot table.
    assert text.splitlines()[-3:] == [
        f"{spot.calls:>9}  {spot.tottime:>8.3f}  "
        f"{spot.cumtime:>8.3f}  {spot.function}"
        for spot in report.hotspots
    ]


def test_cli_profile_defaults():
    parser = build_parser()
    args = parser.parse_args(["profile"])
    assert args.policy == "adaptive"
    assert args.top == DEFAULT_TOP
    assert args.sort == "tottime"
    assert args.format == "text"


def test_cli_profile_json_to_file(tmp_path):
    out = tmp_path / "profile.json"
    code = main(
        ["profile", "--policy", "webrtc", "--duration", "2",
         "--seed", "3", "--top", "4", "--format", "json",
         "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["session"]["seed"] == 3
    assert len(payload["hotspots"]) <= 4


def test_cli_profile_text_to_stdout(capsys):
    code = main(
        ["profile", "--policy", "webrtc", "--duration", "2",
         "--top", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "policy=webrtc" in out
    assert "events/s" in out
