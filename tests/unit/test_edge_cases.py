"""Edge cases across modules that the main suites don't reach."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.netsim.packet import Packet
from repro.rtp.pacer import Pacer


def test_pacer_enqueue_front_jumps_queue(scheduler):
    sent = []
    pacer = Pacer(scheduler, sent.append, 1_000_000)
    regular = [Packet(size_bytes=1250) for _ in range(3)]
    for p, tag in zip(regular, "abc"):
        p.payload = tag
    pacer.enqueue(regular)
    urgent = Packet(size_bytes=1250)
    urgent.payload = "URGENT"
    # First packet is released immediately at t=0; the front-enqueued
    # one must come out right after it, before the remaining two.
    scheduler.call_at(0.001, lambda: pacer.enqueue_front([urgent]))
    scheduler.run_until(1.0)
    assert [p.payload for p in sent] == ["a", "URGENT", "b", "c"]


def test_packet_network_delay_requires_journey():
    packet = Packet(size_bytes=100)
    with pytest.raises(ValueError):
        packet.network_delay()
    packet.send_time = 1.0
    packet.arrival_time = 1.05
    assert packet.network_delay() == pytest.approx(0.05)


def test_results_audio_metrics_require_audio():
    from repro.pipeline.results import SessionResult

    result = SessionResult(policy="x", seed=1, fps=30)
    result.finalize()
    assert result.audio_loss_fraction() == 0.0
    with pytest.raises(ReproError):
        result.mean_audio_latency()


def test_gcc_loss_branch_capped_near_delay_branch():
    """The loss-based estimate may not float arbitrarily above the
    delay-based one."""
    from repro.cc.gcc.gcc import GoogCcController

    gcc = GoogCcController(5e6)
    gcc.force_estimate(5e6)
    gcc._aimd.set_estimate(1e5)
    # One feedback round with zero loss would normally inflate the
    # loss branch; the coupling clamps it to 2x the delay branch.
    from repro.rtp.feedback import PacketResult

    results = [
        PacketResult(seq=i, send_time=0.01 * i,
                     arrival_time=0.01 * i + 0.02, size_bytes=1200)
        for i in range(5)
    ]
    gcc.on_packet_results(1.0, results)
    assert gcc._loss_based.target_bps() <= 2.0 * gcc._aimd.target_bps()


def test_duplex_network_with_codel_forward_queue(scheduler, flat_trace):
    from repro.netsim.aqm import CoDelQueue
    from repro.netsim.network import DuplexNetwork

    queue = CoDelQueue(100_000)
    network = DuplexNetwork(
        scheduler, flat_trace, 0.01, 100_000, forward_queue=queue
    )
    assert network.forward.queue is queue


def test_network_state_decay_only_forward():
    from repro.core.detector import NetworkStateEstimator
    from repro.rtp.feedback import PacketResult

    state = NetworkStateEstimator()
    state.on_results(
        1.0,
        [
            PacketResult(0, 0.0, 0.02, 1200),
            PacketResult(1, 0.5, 0.8, 1200),
        ],
    )
    standing = state.queuing_delay()
    assert standing == pytest.approx(0.28)
    # Querying at an earlier time must not inflate the estimate.
    assert state.queuing_delay(0.5) == pytest.approx(standing)
    # Partial decay.
    assert state.queuing_delay(1.1) == pytest.approx(standing - 0.1)


def test_sent_bitrate_requires_window():
    from repro.pipeline.results import FrameOutcome, SessionResult

    result = SessionResult(policy="x", seed=1, fps=30)
    result.frames = [FrameOutcome(index=0, capture_time=0.0)]
    result.finalize()
    with pytest.raises(ReproError):
        result.sent_bitrate_bps()


def test_resolution_ladder_session_end_to_end():
    """Starving bitrates push the encoder down the resolution ladder."""
    import dataclasses

    from repro.experiments import scenarios
    from repro.pipeline.config import PolicyName
    from repro.pipeline.session import RtcSession

    config = scenarios.step_drop_config(0.12, seed=1)
    config = dataclasses.replace(
        config,
        policy=PolicyName.ADAPTIVE,
        adaptive=dataclasses.replace(
            scenarios.ADAPTIVE_TUNING,
            resolution_ladder=(1.0, 0.5, 0.25),
            min_bits_per_pixel=0.02,
        ),
    )
    session = RtcSession(config)
    session.run()
    # At 300 kbps for 10 s, 720p is starved; the ladder stepped down.
    assert session.encoder.resolution_scale < 1.0


def test_vbv_rate_control_session():
    """CBR/VBV mode runs end to end and caps frame sizes."""
    import dataclasses

    from repro.codec.ratecontrol import RateControlConfig
    from repro.experiments import scenarios
    from repro.pipeline.config import PolicyName, VideoConfig
    from repro.pipeline.runner import run_session

    config = scenarios.step_drop_config(0.3, seed=2)
    config = dataclasses.replace(
        config,
        policy=PolicyName.WEBRTC,
        video=VideoConfig(
            rate_control=RateControlConfig(vbv_buffer_seconds=0.5)
        ),
    )
    result = run_session(config)
    # VBV-capped baseline still spikes, but it completes and frames
    # stay below the buffer bound at the steady target.
    assert result.mean_latency() > 0
    sizes = [f.size_bytes * 8 for f in result.frames if not f.skipped]
    assert max(sizes) <= 0.5 * 2_500_000  # vbv seconds x max target seen
