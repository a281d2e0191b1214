"""Byte-level goldens for the static layer.

``tests/golden/static/`` holds the JSON of ``analyze_vendor_matrix``,
``recommend`` and ``analyze_deployment`` as produced before the
attack-family registry (``repro.analysis.families``) replaced the
per-family code paths.  Every byte is pinned, including the safe rows'
``data`` and the severity ranking's tie order.  ``obr_small_sizes.json``
pins ``obr_bound`` and the OBR wire simulation at its max n for every
Table V cascade at small sizes, where no back end cuts its fetch.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.bounds import obr_bound
from repro.analysis.recommend import recommend
from repro.analysis.report import analyze_deployment, analyze_vendor_matrix
from repro.core.deployment import CdnSpec, Deployment
from repro.core.obr import ObrAttack, vulnerable_combinations
from repro.origin.server import OriginServer

MB = 1 << 20
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden" / "static"

#: One non-default size per family (SBR, OBR, CCFC).
NON_DEFAULT = dict(resource_size=3 * MB, obr_resource_size=4096, ccfc_resource_size=2 * MB)


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def default_report():
    return analyze_vendor_matrix()


@pytest.fixture(scope="module")
def non_default_report():
    return analyze_vendor_matrix(**NON_DEFAULT)


class TestVendorMatrix:
    def test_default_sizes(self, default_report):
        assert default_report.to_json() == golden("matrix_default.json")

    def test_non_default_sizes(self, non_default_report):
        assert non_default_report.to_json() == golden("matrix_nondefault.json")


class TestRecommend:
    def test_default_sizes(self, default_report):
        assert recommend(report=default_report).to_json() == golden(
            "recommend_default.json"
        )

    def test_non_default_sizes(self, non_default_report):
        report = recommend(report=non_default_report, **NON_DEFAULT)
        assert report.to_json() == golden("recommend_nondefault.json")

    def test_retry_aware_residuals(self):
        assert recommend(with_retries=True).to_json() == golden(
            "recommend_retries.json"
        )


class TestDeployment:
    def test_two_node_cascade(self):
        origin = OriginServer(range_support=False)
        origin.add_synthetic_resource("/1KB.bin", 1024)
        origin.add_synthetic_resource("/1MB.bin", 1 * MB)
        deployment = Deployment.cascade(
            CdnSpec(vendor="cdn77"), CdnSpec(vendor="akamai"), origin
        )
        assert analyze_deployment(deployment).to_json() == golden(
            "deployment_cdn77_akamai.json"
        )


class TestObrSmallSizes:
    def test_bound_and_simulation_at_max_n(self):
        pinned = json.loads(golden("obr_small_sizes.json"))
        rows = []
        for fcdn, bcdn in vulnerable_combinations():
            for size in (512, 1024, 4096):
                bound = obr_bound(fcdn, bcdn, resource_size=size)
                result = ObrAttack(fcdn, bcdn, resource_size=size).run(
                    overlap_count=bound.max_n
                )
                rows.append([
                    f"{fcdn}->{bcdn}",
                    size,
                    bound.max_n,
                    bound.victim_bytes_upper,
                    bound.attacker_bytes_lower,
                    result.fcdn_bcdn_traffic,
                    result.bcdn_origin_traffic,
                    result.client_traffic,
                ])
        assert len(rows) == 33
        assert rows == pinned["rows"]
