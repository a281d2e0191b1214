"""Optional analytic TCP/IP framing overhead.

The paper's traffic numbers come from packet captures, so they include
TCP/IP headers, handshakes, and ACK traffic on top of the HTTP payload.
This library reports pure HTTP payload bytes by default (the
amplification *ratios* are nearly identical either way, because both the
numerator and the denominator gain framing overhead).  For experiments
that want capture-like absolute numbers, :class:`TcpOverheadModel` adds a
standard analytic estimate.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod


class OverheadModel(ABC):
    """Maps an HTTP payload size to the on-the-wire byte count."""

    @abstractmethod
    def framed_size(self, payload_bytes: int) -> int:
        """Wire bytes needed to carry ``payload_bytes`` of HTTP payload."""

    @abstractmethod
    def connection_setup_bytes(self) -> int:
        """One-time per-connection cost (handshake/teardown), in bytes."""


class NullOverheadModel(OverheadModel):
    """No framing: wire bytes equal HTTP payload bytes (the default)."""

    def framed_size(self, payload_bytes: int) -> int:
        return payload_bytes

    def connection_setup_bytes(self) -> int:
        return 0


class Http2FramingModel(OverheadModel):
    """HTTP/2 DATA-frame framing (RFC 7540 §4.1).

    The paper notes (§VI-B) that "the RangeAmp threats in HTTP/1.1 are
    also applicable to HTTP/2" — ranges in HTTP/2 are defined by
    reference to RFC 7233, and the framing layer changes the byte counts
    only marginally.  This model quantifies that: each frame of up to
    ``MAX_FRAME_SIZE`` payload bytes pays a 9-byte frame header, and the
    connection pays a one-time preface.  HPACK header compression is not
    modeled (it would *shrink* the attacker-side denominators slightly,
    i.e. make amplification marginally worse), so the model is
    conservative.
    """

    FRAME_HEADER_BYTES = 9
    #: The default SETTINGS_MAX_FRAME_SIZE (RFC 7540 §6.5.2).
    MAX_FRAME_SIZE = 16384
    #: "PRI * HTTP/2.0..." preface plus initial SETTINGS exchange.
    CONNECTION_PREFACE_BYTES = 24 + 2 * (9 + 18)

    def framed_size(self, payload_bytes: int) -> int:
        if payload_bytes <= 0:
            return 0
        frames = math.ceil(payload_bytes / self.MAX_FRAME_SIZE)
        return payload_bytes + frames * self.FRAME_HEADER_BYTES

    def connection_setup_bytes(self) -> int:
        return self.CONNECTION_PREFACE_BYTES


class TcpOverheadModel(OverheadModel):
    """Per-segment TCP/IPv4 header overhead plus handshake cost.

    Each MSS-sized segment pays ``header_bytes`` (20 B IPv4 + 20 B TCP by
    default; raise it to model timestamps or IPv6).  The handshake is
    modeled as three bare segments and the teardown as two.
    """

    def __init__(self, mss: int = 1460, header_bytes: int = 40) -> None:
        if mss <= 0:
            raise ValueError(f"mss must be positive, got {mss}")
        if header_bytes < 0:
            raise ValueError(f"header_bytes must be >= 0, got {header_bytes}")
        self.mss = mss
        self.header_bytes = header_bytes

    def framed_size(self, payload_bytes: int) -> int:
        if payload_bytes <= 0:
            return 0
        segments = math.ceil(payload_bytes / self.mss)
        return payload_bytes + segments * self.header_bytes

    def connection_setup_bytes(self) -> int:
        return 5 * self.header_bytes
