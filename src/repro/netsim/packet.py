"""Packet objects moving through the simulated network.

A :class:`Packet` is deliberately transport-agnostic: the RTP layer fills
in media-specific fields (frame id, position within the frame) while the
network layer only reads ``size_bytes``. Timestamps are stamped by the
components that observe the packet, mirroring where real measurements can
be taken (send time at the sender, arrival time at the receiver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class Packet:
    """One network packet.

    Attributes:
        size_bytes: wire size including RTP/UDP/IP overhead.
        flow: label separating media, feedback, and cross-traffic flows.
        seq: transport sequence number (assigned by the packetizer).
        frame_index: index of the video frame carried (media flows only).
        frame_packet_index: position of this packet within its frame.
        frame_packet_count: number of packets the frame was split into.
        capture_time: when the carried frame was captured (media only).
        send_time: when the packet entered the network (pacer output).
        arrival_time: when the packet left the network at the receiver.
        payload: free-form extra data (tests, cross traffic markers).
        retransmission: True for NACK-triggered re-sends (kept out of
            the TWCC send history — real stacks use separate RTX seqs).
    """

    size_bytes: int
    flow: str = "media"
    seq: int = -1
    frame_index: int = -1
    frame_packet_index: int = 0
    frame_packet_count: int = 1
    capture_time: float = -1.0
    send_time: float = -1.0
    arrival_time: float = -1.0
    payload: Any = None
    retransmission: bool = False

    @property
    def is_frame_final(self) -> bool:
        """True if this is the last packet of its frame."""
        return self.frame_packet_index == self.frame_packet_count - 1

    def network_delay(self) -> float:
        """One-way delay observed by this packet (send → arrival).

        Raises:
            ValueError: if the packet has not completed its journey.
        """
        if self.send_time < 0 or self.arrival_time < 0:
            raise ValueError("packet has not been sent and received yet")
        return self.arrival_time - self.send_time
