"""Smoke tests for the public API, imported from its defining modules."""

import repro
from repro.cdn.vendors import all_vendor_names, create_profile
from repro.core.deployment import CdnSpec, Deployment
from repro.core.obr import ObrAttack
from repro.core.sbr import SbrAttack
from repro.defense.mitigations import with_laziness
from repro.origin.server import OriginServer


class TestSurface:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_vendor_registry_size(self):
        assert len(all_vendor_names()) == 13


class TestEndToEndViaPublicApi:
    def test_sbr_one_liner(self):
        result = SbrAttack("gcore", resource_size=1 << 20).run()
        assert result.amplification > 1500

    def test_obr_one_liner(self):
        result = ObrAttack("cloudflare", "akamai").run(overlap_count=32)
        assert result.amplification > 20

    def test_mitigation_wrappers_compose(self):
        profile = with_laziness(create_profile("gcore"))
        origin = OriginServer()
        origin.add_synthetic_resource("/x.bin", 4096)
        deployment = Deployment.single(CdnSpec(profile=profile), origin)
        result = deployment.client().get("/x.bin", range_value="bytes=0-0")
        assert result.response.status == 206
