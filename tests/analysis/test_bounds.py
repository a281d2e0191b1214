"""Unit tests for the closed-form amplification bounds."""

import pytest

from repro.analysis.bounds import (
    ObrBound,
    SbrBound,
    obr_bound,
    sbr_bound,
    static_max_n,
)
from repro.cdn.vendors import all_vendor_names
from repro.core.obr import vulnerable_combinations
from repro.errors import ConfigurationError
from repro.netsim.overhead import TcpOverheadModel

MB = 1 << 20


class TestSbrBound:
    def test_every_vendor_has_a_positive_bound(self):
        for vendor in all_vendor_names():
            bound = sbr_bound(vendor, 10 * MB)
            assert isinstance(bound, SbrBound)
            assert bound.origin_bytes_upper > 0
            assert bound.client_bytes_lower > 0
            assert bound.factor > 1.0, vendor

    def test_numerator_dominated_by_resource_size(self):
        bound = sbr_bound("akamai", 10 * MB)
        assert bound.origin_bytes_upper >= 10 * MB
        # One fetch plus the 1 KB header allowance — nothing else.
        assert bound.origin_bytes_upper <= 10 * MB + 2048

    def test_factor_scales_with_size(self):
        small = sbr_bound("akamai", 1 * MB)
        large = sbr_bound("akamai", 10 * MB)
        assert large.factor > small.factor

    def test_azure_bound_plateaus_past_the_8mb_cut(self):
        # Azure cuts delivery at 8 MB (+slop) and adds one window fetch,
        # so the numerator stops tracking the resource size.
        at_10 = sbr_bound("azure", 10 * MB)
        at_25 = sbr_bound("azure", 25 * MB)
        assert at_25.origin_bytes_upper <= at_10.origin_bytes_upper + 8 * MB

    def test_cloudfront_bound_plateaus_at_the_window_cap(self):
        at_10 = sbr_bound("cloudfront", 10 * MB)
        at_25 = sbr_bound("cloudfront", 25 * MB)
        assert at_25.origin_bytes_upper == at_10.origin_bytes_upper

    def test_keycdn_two_fetches_and_two_responses(self):
        bound = sbr_bound("keycdn", 10 * MB)
        assert bound.origin_fetches == 2
        assert bound.client_responses == 2

    def test_overhead_model_inflates_the_numerator(self):
        plain = sbr_bound("akamai", 1 * MB)
        framed = sbr_bound("akamai", 1 * MB, overhead=TcpOverheadModel())
        assert framed.origin_bytes_upper > plain.origin_bytes_upper


class TestStaticMaxN:
    def test_rejects_self_cascade(self):
        with pytest.raises(ConfigurationError):
            static_max_n("akamai", "akamai")

    def test_every_table5_cell_admits_many_overlaps(self):
        for fcdn, bcdn in vulnerable_combinations():
            n = static_max_n(fcdn, bcdn)
            assert n >= 2, (fcdn, bcdn)

    def test_azure_backend_caps_at_its_part_limit(self):
        assert static_max_n("cdn77", "azure") == 64

    def test_header_limited_cells_sit_in_the_thousands(self):
        # cdn77's 16 KB single-header-line limit bounds its own requests.
        assert 5000 <= static_max_n("cdn77", "akamai") <= 6000

    def test_non_lazy_frontend_admits_nothing(self):
        # Akamai never forwards overlapping multi-ranges unchanged.
        assert static_max_n("akamai", "cloudflare") == 0


class TestObrBound:
    def test_every_table5_cell_has_a_bound(self):
        for fcdn, bcdn in vulnerable_combinations():
            bound = obr_bound(fcdn, bcdn)
            assert isinstance(bound, ObrBound)
            assert bound.max_n >= 2
            assert bound.factor > 1.0, (fcdn, bcdn)

    def test_victim_bytes_scale_with_n(self):
        bound = obr_bound("cloudflare", "akamai")
        assert bound.victim_bytes_upper >= bound.max_n * bound.resource_size

    def test_explicit_overlap_count_skips_the_search(self):
        bound = obr_bound("cloudflare", "akamai", overlap_count=64)
        assert bound.max_n == 64

    def test_unexploitable_cascade_raises(self):
        with pytest.raises(ConfigurationError):
            obr_bound("akamai", "cloudflare")
