"""Smoke tests for the package-level public API."""

import repro


class TestSurface:
    def test_all_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_vendor_registry_size(self):
        assert len(repro.all_vendor_names()) == 13


class TestEndToEndViaPublicApi:
    def test_sbr_one_liner(self):
        result = repro.SbrAttack("gcore", resource_size=1 << 20).run()
        assert result.amplification > 1500

    def test_obr_one_liner(self):
        result = repro.ObrAttack("cloudflare", "akamai").run(overlap_count=32)
        assert result.amplification > 20

    def test_mitigation_wrappers_compose(self):
        profile = repro.with_laziness(repro.create_profile("gcore"))
        origin = repro.OriginServer()
        origin.add_synthetic_resource("/x.bin", 4096)
        deployment = repro.Deployment.single(
            repro.CdnSpec(profile=profile), origin
        )
        result = deployment.client().get("/x.bin", range_value="bytes=0-0")
        assert result.response.status == 206
