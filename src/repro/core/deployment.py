"""Deployment wiring: client → CDN chain → origin, fully instrumented.

A :class:`Deployment` assembles the paper's two topologies:

* **single CDN** (Fig 3a — the SBR setting): segments ``client-cdn`` and
  ``cdn-origin``;
* **cascaded CDNs** (Fig 3b — the OBR setting): segments ``client-cdn``,
  ``fcdn-bcdn``, and ``bcdn-origin``.

Longer chains are supported with generated segment names.  All nodes
share one :class:`~repro.netsim.tap.TrafficLedger`, so a single run
yields the per-segment response traffic the paper's tables report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.cdn.cache import CdnCache
from repro.cdn.node import CdnNode
from repro.cdn.vendors import create_profile
from repro.cdn.vendors.base import VendorConfig, VendorProfile
from repro.errors import ConfigurationError, ResourceNotFoundError
from repro.handler import HttpHandler
from repro.http.headers import Headers
from repro.http.message import HttpRequest, HttpResponse
from repro.netsim.connection import Connection, ExchangeRecord
from repro.netsim.overhead import OverheadModel
from repro.netsim.tap import BCDN_ORIGIN, CDN_ORIGIN, CLIENT_CDN, FCDN_BCDN, TrafficLedger
from repro.obs.tracer import current_tracer
from repro.origin.server import OriginServer


@dataclass
class CdnSpec:
    """Declaration of one CDN hop in a deployment chain.

    Exactly one of ``vendor`` (a registry name) or ``profile`` (a
    pre-built instance) must be given.
    """

    vendor: Optional[str] = None
    profile: Optional[VendorProfile] = None
    config: Optional[VendorConfig] = None
    cache: Optional[CdnCache] = None

    def build_profile(self) -> VendorProfile:
        if (self.vendor is None) == (self.profile is None):
            raise ConfigurationError("CdnSpec needs exactly one of vendor/profile")
        if self.profile is not None:
            return self.profile
        assert self.vendor is not None
        return create_profile(self.vendor)


def _coerce_spec(spec: Union[str, CdnSpec]) -> CdnSpec:
    return CdnSpec(vendor=spec) if isinstance(spec, str) else spec


class RecordingHandler(HttpHandler):
    """Wraps a handler and records every request it receives.

    The feasibility experiment compares the Range header the client sent
    with the one(s) the origin received; this is the origin-side capture.
    """

    def __init__(self, inner: HttpHandler) -> None:
        self.inner = inner
        self.requests: List[HttpRequest] = []

    def handle(self, request: HttpRequest) -> HttpResponse:
        self.requests.append(request.copy())
        return self.inner.handle(request)

    def clear(self) -> None:
        self.requests.clear()

    @property
    def range_values_seen(self) -> List[Optional[str]]:
        """The Range header of each received request, in arrival order."""
        return [r.headers.get("Range") for r in self.requests]


class Deployment:
    """A wired client → CDN chain → origin topology."""

    def __init__(
        self,
        origin: OriginServer,
        chain: Sequence[Union[str, CdnSpec]],
        overhead: Optional[OverheadModel] = None,
    ) -> None:
        if not chain:
            raise ConfigurationError("a deployment needs at least one CDN")
        self.origin = origin
        self.ledger = TrafficLedger(overhead=overhead)
        self.origin_tap = RecordingHandler(origin)

        specs = [_coerce_spec(s) for s in chain]
        segment_names = self._segment_names(len(specs))
        upstream: HttpHandler = self.origin_tap
        nodes: List[CdnNode] = []
        # Build from the origin outwards.
        for index in range(len(specs) - 1, -1, -1):
            spec = specs[index]
            profile = spec.build_profile()
            config = spec.config if spec.config is not None else profile.effective_config()
            node = CdnNode(
                profile=profile,
                upstream=upstream,
                ledger=self.ledger,
                upstream_segment=segment_names[index + 1],
                config=config,
                cache=spec.cache,
                size_hint_fn=self._size_hint,
                node_label=profile.name,
            )
            nodes.insert(0, node)
            upstream = node
        self.nodes = nodes
        self.client_segment = segment_names[0]

    @staticmethod
    def _segment_names(chain_length: int) -> List[str]:
        """Paper-style segment names for a chain of ``chain_length`` CDNs.

        One CDN: ``client-cdn``, ``cdn-origin``.  Two CDNs: ``client-cdn``,
        ``fcdn-bcdn``, ``bcdn-origin``.  Longer chains get generated
        ``cdn<i>-cdn<i+1>`` names for the middle hops.
        """
        if chain_length == 1:
            return [CLIENT_CDN, CDN_ORIGIN]
        if chain_length == 2:
            return [CLIENT_CDN, FCDN_BCDN, BCDN_ORIGIN]
        middle = [f"cdn{i}-cdn{i + 1}" for i in range(1, chain_length)]
        return [CLIENT_CDN] + middle + [CDN_ORIGIN]

    def _size_hint(self, path: str) -> Optional[int]:
        try:
            return self.origin.store.get(path).size
        except ResourceNotFoundError:
            return None

    # -- convenience constructors -------------------------------------------------

    @classmethod
    def single(
        cls,
        vendor: Union[str, CdnSpec],
        origin: OriginServer,
        overhead: Optional[OverheadModel] = None,
    ) -> "Deployment":
        """The SBR topology: one CDN in front of the origin."""
        return cls(origin, [vendor], overhead=overhead)

    @classmethod
    def cascade(
        cls,
        fcdn: Union[str, CdnSpec],
        bcdn: Union[str, CdnSpec],
        origin: OriginServer,
        overhead: Optional[OverheadModel] = None,
    ) -> "Deployment":
        """The OBR topology: FCDN → BCDN → origin."""
        return cls(origin, [fcdn, bcdn], overhead=overhead)

    # -- access --------------------------------------------------------------------

    @property
    def front(self) -> CdnNode:
        """The node clients talk to."""
        return self.nodes[0]

    def client(self, host: str = "victim.example", reuse_connection: bool = False) -> "Client":
        return Client(self, host=host, reuse_connection=reuse_connection)

    def response_traffic(self, segment: str) -> int:
        """Response-direction wire bytes observed on ``segment``."""
        return self.ledger.segment_stats(segment).response_bytes_delivered


@dataclass
class ClientResult:
    """One client exchange plus its wire accounting."""

    response: HttpResponse
    record: ExchangeRecord

    @property
    def received_bytes(self) -> int:
        """Response bytes the client actually received (post-abort)."""
        return self.record.response_bytes_delivered


class Client:
    """The attacker-side HTTP client.

    Supports the OBR attacker's resource-saving tricks: a tiny TCP
    receive window / early abort is modeled by capping how many response
    bytes are delivered on the client segment (``abort_after``).
    """

    def __init__(
        self,
        deployment: Deployment,
        host: str = "victim.example",
        reuse_connection: bool = False,
    ) -> None:
        self.deployment = deployment
        self.host = host
        #: When true, every request shares one client-side connection —
        #: how a keep-alive HTTP/1.1 client or a multiplexing HTTP/2
        #: client behaves (per-connection setup cost is paid once).
        self.reuse_connection = reuse_connection
        self._connection: Optional[Connection] = None

    def _client_connection(self) -> Connection:
        if not self.reuse_connection:
            return self.deployment.ledger.open_connection(
                self.deployment.client_segment, client_label="client",
                server_label=self.deployment.front.node_label,
            )
        if self._connection is None:
            self._connection = self.deployment.ledger.open_connection(
                self.deployment.client_segment, client_label="client",
                server_label=self.deployment.front.node_label,
            )
        return self._connection

    def get(
        self,
        target: str,
        range_value: Optional[str] = None,
        extra_headers: Optional[Sequence[Tuple[str, str]]] = None,
        abort_after: Optional[int] = None,
    ) -> ClientResult:
        """Send one GET through the deployment's front node."""
        headers = Headers([("Host", self.host)])
        if range_value is not None:
            headers.add("Range", range_value)
        for name, value in extra_headers or ():
            headers.add(name, value)
        request = HttpRequest(method="GET", target=target, headers=headers)
        with current_tracer().span("client.request") as span:
            if span.recording:
                span.set(target=target, range=range_value or "")
                if abort_after is not None:
                    span.set(abort_after=abort_after)
            connection = self._client_connection()
            response = self.deployment.front.handle(request)
            record = connection.exchange(
                request, response, deliver_cap=abort_after, note="client"
            )
            if span.recording:
                span.set(status=record.status)
        return ClientResult(response=response, record=record)
