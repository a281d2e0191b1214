"""RangeAmp: a reproduction of *CDN Backfired: Amplification Attacks
Based on HTTP Range Requests* (DSN 2020).

The library builds a wire-accurate HTTP/CDN simulation substrate —
origin server, 13 CDN vendor behavior profiles, per-segment traffic
taps — and on top of it the paper's two attacks:

* **SBR** (Small Byte Range): tiny range request in, whole resource out
  of the origin (:class:`repro.core.sbr.SbrAttack`);
* **OBR** (Overlapping Byte Ranges): n overlapping ranges through a lazy
  front CDN, an n-part multipart out of the back CDN
  (:class:`repro.core.obr.ObrAttack`);
* **CCFC** (Compression Format Conversion, arXiv 2409.00712): the edge
  rewrites Accept-Encoding upstream, pulls a compressed body from the
  origin, and ships the decompressed bytes to an identity-only client
  (:class:`repro.core.ccfc.CcfcAttack`).

Quickstart::

    from repro import SbrAttack

    result = SbrAttack("akamai", resource_size=25 * 1024 * 1024).run()
    print(f"amplification: {result.amplification:.0f}x")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from __future__ import annotations

from repro.cdn.vendors import all_vendor_names, create_profile
from repro.core.amplification import AmplificationReport
from repro.core.cachebusting import CacheBuster
from repro.core.ccfc import CcfcAttack, CcfcResult
from repro.core.connection_drop import ConnectionDropAttack, compare_with_sbr
from repro.core.deployment import CdnSpec, Client, Deployment
from repro.core.economics import estimate_obr_campaign, estimate_sbr_campaign
from repro.core.feasibility import FeasibilityProbe, survey
from repro.core.obr import ObrAttack, ObrResult, vulnerable_combinations
from repro.core.practical import BandwidthAttackSimulation, BandwidthRunResult
from repro.core.sbr import SbrAttack, SbrResult, exploited_range_cases, sweep_resource_sizes
from repro.defense.mitigations import (
    MitigatedProfile,
    with_bounded_expansion,
    with_laziness,
    with_overlap_rejection,
    with_slicing,
)
from repro.errors import ReproError
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    current_faults,
    retry_policy_for,
    use_faults,
)
from repro.faults.experiment import FaultedSbrResult, measure_sbr_under_faults
from repro.netsim.overhead import Http2FramingModel, TcpOverheadModel
from repro.origin.server import OriginServer

__version__ = "1.0.0"

__all__ = [
    "AmplificationReport",
    "BandwidthAttackSimulation",
    "BandwidthRunResult",
    "CacheBuster",
    "CcfcAttack",
    "CcfcResult",
    "CdnSpec",
    "Client",
    "ConnectionDropAttack",
    "Deployment",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "FaultedSbrResult",
    "FeasibilityProbe",
    "Http2FramingModel",
    "MitigatedProfile",
    "ObrAttack",
    "ObrResult",
    "OriginServer",
    "ReproError",
    "RetryPolicy",
    "SbrAttack",
    "SbrResult",
    "TcpOverheadModel",
    "__version__",
    "all_vendor_names",
    "compare_with_sbr",
    "create_profile",
    "current_faults",
    "estimate_obr_campaign",
    "estimate_sbr_campaign",
    "exploited_range_cases",
    "measure_sbr_under_faults",
    "retry_policy_for",
    "survey",
    "sweep_resource_sizes",
    "use_faults",
    "vulnerable_combinations",
    "with_bounded_expansion",
    "with_laziness",
    "with_overlap_rejection",
    "with_slicing",
]
