"""Integration tests for the OBR attack (paper §IV-C, §V-C, Table V).

Max-n values are checked tightly (they fall out of the header-limit
arithmetic the paper measured: CDN77/CDNsun land exactly, Cloudflare and
StackPath within 1%).  Amplification factors are checked for order of
magnitude and ordering (thousands for Akamai/StackPath back-ends, ~50
for Azure): the paper's absolute factors embed its testbed's TCP framing.
"""

import pytest

from repro.cdn.vendors import profile_class
from repro.cdn.vendors.base import VendorConfig
from repro.core.obr import ObrAttack, vulnerable_combinations
from repro.errors import ConfigurationError
from repro.netsim.overhead import NullOverheadModel
from repro.reporting.paper_values import PAPER_TABLE5


class TestCombinations:
    def test_eleven_combinations(self):
        combos = vulnerable_combinations()
        assert len(combos) == 11
        assert ("stackpath", "stackpath") not in combos
        assert set(combos) == set(PAPER_TABLE5)

    def test_self_cascade_rejected(self):
        with pytest.raises(ConfigurationError):
            ObrAttack("stackpath", "stackpath")

    def test_exploited_leading_specs(self):
        assert profile_class("cdn77").obr_leading_spec == "-1024"
        assert profile_class("cdnsun").obr_leading_spec == "1-"
        assert profile_class("cloudflare").obr_leading_spec is None
        assert profile_class("stackpath").obr_leading_spec is None

    def test_only_cloudflare_fronts_under_a_declared_config(self):
        assert profile_class("cloudflare").obr_front_config == VendorConfig(
            bypass_cache=True
        )
        for fcdn in ("cdn77", "cdnsun", "stackpath"):
            assert profile_class(fcdn).obr_front_config is None


class TestMaxN:
    """Table V column 4."""

    def test_cdn77_akamai_exact(self):
        assert ObrAttack("cdn77", "akamai").find_max_n() == 5455

    def test_cdnsun_akamai_exact(self):
        assert ObrAttack("cdnsun", "akamai").find_max_n() == 5456

    def test_cloudflare_akamai_within_one_percent(self):
        n = ObrAttack("cloudflare", "akamai").find_max_n()
        assert n == pytest.approx(10750, rel=0.01)

    def test_stackpath_akamai_within_one_percent(self):
        n = ObrAttack("stackpath", "akamai").find_max_n()
        assert n == pytest.approx(10801, rel=0.01)

    @pytest.mark.parametrize("fcdn", ["cdn77", "cdnsun", "cloudflare", "stackpath"])
    def test_azure_backend_pins_n_at_64(self, fcdn):
        assert ObrAttack(fcdn, "azure").find_max_n() == 64

    def test_probe_statuses(self):
        attack = ObrAttack("cloudflare", "akamai")
        assert attack.probe(64) == 206
        assert attack.probe(20_000) != 206


class TestMeasurement:
    def test_cloudflare_akamai_full_run(self):
        result = ObrAttack("cloudflare", "akamai").run()
        paper_n, paper_bo, paper_fb, paper_factor = PAPER_TABLE5[("cloudflare", "akamai")]
        assert result.overlap_count == pytest.approx(paper_n, rel=0.01)
        # Victim-link traffic within a few percent of the paper's capture.
        assert result.fcdn_bcdn_traffic == pytest.approx(paper_fb, rel=0.05)
        # Back-end cost and factor: same order, within capture-model slack.
        assert result.bcdn_origin_traffic == pytest.approx(paper_bo, rel=0.25)
        assert result.amplification == pytest.approx(paper_factor, rel=0.25)
        assert result.status == 206

    def test_azure_backend_factor_matches_paper_scale(self):
        result = ObrAttack("cloudflare", "azure").run()
        paper_factor = PAPER_TABLE5[("cloudflare", "azure")][3]
        assert result.overlap_count == 64
        assert result.amplification == pytest.approx(paper_factor, rel=0.25)

    def test_attacker_receives_almost_nothing(self):
        """The client abort: amplified traffic stays between the CDNs."""
        result = ObrAttack("cloudflare", "akamai").run(overlap_count=1000)
        assert result.client_traffic <= 2048
        assert result.fcdn_bcdn_traffic > 1_000_000

    def test_traffic_proportional_to_n(self):
        """§IV-C: fcdn-bcdn traffic is nearly proportional to n."""
        small = ObrAttack("cloudflare", "akamai").run(overlap_count=100)
        large = ObrAttack("cloudflare", "akamai").run(overlap_count=1000)
        assert large.fcdn_bcdn_traffic / small.fcdn_bcdn_traffic == pytest.approx(
            10, rel=0.05
        )

    def test_bcdn_origin_traffic_independent_of_n(self):
        """§IV-C: the back-end cost is one full fetch regardless of n."""
        small = ObrAttack("cloudflare", "akamai").run(overlap_count=10)
        large = ObrAttack("cloudflare", "akamai").run(overlap_count=5000)
        assert small.bcdn_origin_traffic == large.bcdn_origin_traffic

    def test_overhead_model_is_tcp_by_default_and_swappable(self):
        framed = ObrAttack("cloudflare", "akamai").run(overlap_count=64)
        plain = ObrAttack(
            "cloudflare", "akamai", overhead=NullOverheadModel()
        ).run(overlap_count=64)
        assert framed.bcdn_origin_traffic > plain.bcdn_origin_traffic

    def test_all_eleven_combinations_amplify(self):
        """Table V's bottom line, at a small n for speed."""
        for fcdn, bcdn in vulnerable_combinations():
            result = ObrAttack(fcdn, bcdn).run(overlap_count=32)
            assert result.status == 206, (fcdn, bcdn)
            assert result.amplification > 15, (fcdn, bcdn)


class TestNonVulnerableCombinations:
    @pytest.mark.parametrize("fcdn", ["akamai", "fastly", "gcore", "tencent"])
    def test_deleting_fcdns_do_not_amplify(self, fcdn):
        """A Deletion-policy front-end strips the multi-range header, so
        the back-end never builds the n-part response."""
        attack = ObrAttack(fcdn, "azure")
        result = attack.run(overlap_count=32)
        assert result.amplification < 15

    def test_coalescing_bcdn_does_not_amplify(self):
        result = ObrAttack("cloudflare", "gcore").run(overlap_count=32)
        assert result.amplification < 15
