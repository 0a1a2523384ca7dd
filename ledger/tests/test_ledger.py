"""The benchmark's own tests: span bookkeeping, wrapper removal, names.

Run from the repository root: ``python3 -m pytest ledger/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import predictions  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from meter import REFERENCE_S, SHORT_LAP_S, Meter, RawMeter  # noqa: E402
from workloads import WORKLOADS, Unit  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """A perf_counter stand-in that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", fake)
    return fake


def test_child_time_is_subtracted_and_reentry_not_double_counted(clock):
    ledger = tracer.Ledger()
    calls = []

    def inner_a():  # re-entry into "a" below "b"
        clock.work(0.5)

    def same_layer():  # nested call into the layer already on top
        calls.append("same")
        clock.work(0.25)

    def b():
        clock.work(2.0)
        wrapped_inner_a()

    def a():
        clock.work(1.0)
        wrapped_same()
        wrapped_b()
        clock.work(0.125)

    wrapped_inner_a = ledger.spanned("a", inner_a)
    wrapped_same = ledger.spanned("a", same_layer)
    wrapped_b = ledger.spanned("b", b)
    with ledger.root() as root:
        clock.work(0.0625)
        ledger.spanned("a", a)()

    totals = ledger.totals()
    assert totals["self_s"]["a"] == pytest.approx(1.0 + 0.25 + 0.125 + 0.5)
    assert totals["self_s"]["b"] == pytest.approx(2.0)
    assert totals["self_s"][tracer.ROOT] == pytest.approx(0.0625)
    assert sum(totals["self_s"].values()) == pytest.approx(root.wall)
    # The same-layer call opened no span; the re-entry under "b" did.
    assert calls == ["same"]
    assert totals["calls"]["a"] == 2
    assert totals["calls"]["b"] == 1


def test_span_closes_on_exception(clock):
    ledger = tracer.Ledger()

    def boom():
        clock.work(1.0)
        raise ValueError("x")

    with ledger.root():
        with pytest.raises(ValueError):
            ledger.spanned("rtp", boom)()
        clock.work(0.5)
    assert ledger.stack == []
    assert ledger.totals()["self_s"] == {"rtp": 1.0, tracer.ROOT: 0.5}


def test_forked_worker_time_nests_under_the_waiting_span(tmp_path):
    ledger = tracer.Ledger(spool_dir=tmp_path)
    ledger.install()
    try:
        child_work = ledger.spanned("rtp", lambda: time.sleep(0.05))

        def parent_span():
            pid = os.fork()
            if pid == 0:  # worker: its own root span, spooled on close
                try:
                    child_work()
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
            ledger.add_child_time(ledger.absorb_spools())

        with ledger.root() as root:
            ledger.spanned("pipeline", parent_span)()
    finally:
        ledger.uninstall()
    assert list(tmp_path.iterdir()) == []
    totals = ledger.totals()
    assert totals["self_s"]["rtp"] >= 0.05
    assert totals["calls"]["rtp"] == 1
    assert sum(totals["self_s"].values()) == pytest.approx(root.wall, rel=1e-9)


def test_wrappers_are_fully_removed_after_a_traced_session():
    from repro.experiments import scenarios
    from repro.pipeline.session import RtcSession

    ledger = tracer.Ledger()
    ledger.install()
    try:
        patches = list(ledger._patches)
        assert all(vars(o)[n] is not orig for o, n, orig in patches)
        config = dataclasses.replace(
            scenarios.step_drop_config(0.3, seed=1), duration=3.0
        )
        with ledger.root():
            RtcSession(config).run()
    finally:
        ledger.uninstall()
    assert len(patches) > 40
    assert all(vars(o)[n] is orig for o, n, orig in patches)
    assert ledger.leftovers() == []
    totals = ledger.totals()
    assert totals["counts"]["simcore.events"] > 0
    assert totals["counts"]["codec.frames_encoded"] > 0
    assert set(totals["self_s"]) - {tracer.ROOT, tracer.LANE} <= set(tracer.LAYERS)


def test_uninstall_restores_the_exact_originals():
    from repro.netsim.link import Link
    from repro.simcore.scheduler import Scheduler

    before = (vars(Scheduler)["call_at"], vars(Link)["send"])
    ledger = tracer.Ledger()
    ledger.install()
    assert vars(Scheduler)["call_at"] is not before[0]
    ledger.uninstall()
    assert (vars(Scheduler)["call_at"], vars(Link)["send"]) == before


def test_layer_of_maps_packages():
    from repro.baselines.webrtc_like import WebrtcLikePolicy
    from repro.netsim.link import Link
    from repro.pipeline.results import SessionResult

    assert tracer.layer_of(Link.send) == "netsim"
    assert tracer.layer_of(WebrtcLikePolicy.before_frame) == "core"
    assert tracer.layer_of(SessionResult.finalize) == "pipeline"
    assert tracer.layer_of(len) is None


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(100)]
    value, pct = run.tail(values)
    assert value == 89.0
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 89 / 99)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def test_short_laps_are_scaled_and_long_laps_reported_as_measured():
    assert Meter.report(0.5, 2 * REFERENCE_S) == pytest.approx(0.25)
    assert Meter.report(2 * SHORT_LAP_S, None) == 2 * SHORT_LAP_S
    watch = Meter()
    time.sleep(0.01)
    seconds, speed = watch.lap()
    assert seconds < SHORT_LAP_S and speed > 0


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    units = [
        Unit(
            cells=[(0.1, 0.01), (0.2, None)],
            cold=[(0.1, 0.01), (0.2, None)],
            replays=[(0.05, 0.01)],
            media_s=10.0,
            digest="x",
        )
    ]
    e2e = run.end_to_end(units, [(0.5, 0.15), (0.6, 0.15)], RawMeter())
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert e2e[metric["name"]][2] == metric["unit"]
    totals = {"self_s": {"rtp": 1.0}, "calls": {}, "counts": {}}
    layers = run.per_layer(totals, units=1, wall=2.0, overhead=1.5)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert layers[metric["name"]][1] == metric["unit"]
    for name in list(e2e) + list(layers):
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_predictions_name_known_layers_metrics_and_workloads():
    spec = _benchmark_json()
    e2e = {m["name"] for m in spec["end_to_end"]}
    for layer, moves in predictions.PREDICTIONS.items():
        assert layer in tracer.LAYERS
        for metric, workloads in moves:
            assert metric in e2e
            assert set(workloads) <= set(WORKLOADS)
