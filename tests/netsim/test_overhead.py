"""Unit tests for the TCP/IP and HTTP/2 framing models."""

import pytest

from repro.core.cachebusting import CacheBuster
from repro.core.deployment import Deployment
from repro.netsim.overhead import Http2FramingModel, NullOverheadModel, TcpOverheadModel
from repro.netsim.tap import CDN_ORIGIN, CLIENT_CDN
from repro.origin.server import OriginServer

MB = 1 << 20


class TestNullModel:
    def test_identity(self):
        model = NullOverheadModel()
        assert model.framed_size(0) == 0
        assert model.framed_size(12345) == 12345
        assert model.connection_setup_bytes() == 0


class TestTcpModel:
    def test_single_segment(self):
        model = TcpOverheadModel(mss=1460, header_bytes=40)
        assert model.framed_size(100) == 140

    def test_exact_segment_boundary(self):
        model = TcpOverheadModel(mss=1460, header_bytes=40)
        assert model.framed_size(1460) == 1500
        assert model.framed_size(1461) == 1461 + 80

    def test_zero_payload(self):
        assert TcpOverheadModel().framed_size(0) == 0

    def test_large_payload_overhead_fraction(self):
        model = TcpOverheadModel(mss=1460, header_bytes=40)
        payload = 10 * 1024 * 1024
        framed = model.framed_size(payload)
        # ~2.7% framing overhead for full-size segments.
        assert 1.025 < framed / payload < 1.03

    def test_setup_cost(self):
        assert TcpOverheadModel(header_bytes=40).connection_setup_bytes() == 200

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TcpOverheadModel(mss=0)
        with pytest.raises(ValueError):
            TcpOverheadModel(header_bytes=-1)


class TestHttp2Framing:
    def test_frame_overhead(self):
        model = Http2FramingModel()
        assert model.framed_size(0) == 0
        assert model.framed_size(100) == 109
        assert model.framed_size(16384) == 16384 + 9
        assert model.framed_size(16385) == 16385 + 18
        assert model.connection_setup_bytes() > 0

    def test_sbr_amplification_carries_over_to_http2(self):
        """Paper §VI-B: RangeAmp applies to HTTP/2 unchanged.

        An attacker multiplexes many requests over one HTTP/2
        connection, so the connection preface amortizes; with a reused
        client connection, framing shifts the factor by only a couple of
        percent.
        """

        def factor(overhead):
            origin = OriginServer()
            origin.add_synthetic_resource("/big.bin", 10 * MB)
            deployment = Deployment.single("akamai", origin, overhead=overhead)
            client = deployment.client(reuse_connection=True)
            buster = CacheBuster()
            for _ in range(50):
                client.get(buster.bust("/big.bin"), range_value="bytes=0-0")
            return (
                deployment.response_traffic(CDN_ORIGIN)
                / deployment.response_traffic(CLIENT_CDN)
            )

        plain = factor(None)
        framed = factor(Http2FramingModel())
        assert framed == pytest.approx(plain, rel=0.03)
