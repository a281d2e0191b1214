"""Vendor profiles are immutable values, built once and shared.

What a vendor remembers between requests (KeyCDN's sightings, a slicing
edge's slices) lives in each node's :class:`EdgeState`, so any number
of deployments, and threads, can share one profile and each still
measure one attack against one fresh edge node.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cdn.vendors import all_vendor_names, create_profile
from repro.core.sbr import SbrAttack
from repro.defense.mitigations import (
    with_encoding_passthrough,
    with_laziness,
    with_overlap_rejection,
    with_slicing,
)
from repro.families.base import mitigated_profile
from repro.families.sbr import FAMILY as SBR

MB = 1 << 20

#: Factors of one attack round against a fresh edge node.
KEYCDN_SBR = {1 * MB: 725.5269709543569, 10 * MB: 7251.934993084371}
SLICING_RESIDUAL = {
    ("keycdn", 1 * MB): 725.3637621023513,
    ("gcore", 10 * MB): 1762.818487394958,
}

SLICING = next(spec for spec in SBR.mitigations if spec.name == "slicing")


def _profiles():
    """A registry, a mitigated and a sliced profile."""
    return [
        create_profile("keycdn"),
        mitigated_profile("akamai", "overlap-rejection"),
        with_slicing(create_profile("gcore")),
    ]


class TestImmutable:
    @pytest.mark.parametrize("index", range(3))
    def test_assigning_an_attribute_raises(self, index):
        profile = _profiles()[index]
        for name in ("limits", "name", "reply_behavior", "anything"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(profile, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            del profile.limits

    def test_encoding_mitigations_are_built_not_mutated(self):
        inner = create_profile("cloudflare")
        passthrough = with_encoding_passthrough(inner)
        assert passthrough.edge_decompresses is False
        assert passthrough.edge_accept_encoding == ()
        # The registry instance they wrap is untouched.
        assert inner.edge_decompresses is True
        assert inner.edge_accept_encoding == ("br", "gzip")

    def test_the_default_compression_ratios_are_read_only(self):
        with pytest.raises(TypeError):
            create_profile("akamai").compression_ratios["br"] = 1.0  # type: ignore[index]


class TestShared:
    @pytest.mark.parametrize("vendor", all_vendor_names())
    def test_the_registry_hands_one_instance(self, vendor):
        assert create_profile(vendor) is create_profile(vendor)

    @pytest.mark.parametrize("mitigation", ["laziness", "overlap-rejection", "slicing"])
    def test_the_mitigated_lookup_hands_one_instance(self, mitigation):
        first = mitigated_profile("cdn77", mitigation)
        assert mitigated_profile("cdn77", mitigation) is first
        assert first.inner is create_profile("cdn77")

    def test_wrappers_still_build_new_profiles(self):
        inner = create_profile("gcore")
        assert with_laziness(inner) is not with_laziness(inner)
        assert with_overlap_rejection(inner).limits is not inner.limits


def _keycdn_factor(size):
    return SbrAttack("keycdn", resource_size=size).run().amplification


def _slicing_residual(key):
    vendor, size = key
    return SBR.simulate((vendor,), size, SLICING)


class TestStateLivesInTheNode:
    """Deployments sharing one profile measure the same factors: a
    second run sees no sighting or slice of the first."""

    def test_keycdn_sbr_repeats(self):
        for _ in range(3):
            for size, factor in KEYCDN_SBR.items():
                assert _keycdn_factor(size) == factor

    def test_slicing_residual_repeats(self):
        for _ in range(3):
            for key, factor in SLICING_RESIDUAL.items():
                assert _slicing_residual(key) == factor

    def test_four_threads_at_once(self):
        jobs = [(_keycdn_factor, size, factor) for size, factor in KEYCDN_SBR.items()]
        jobs += [(_slicing_residual, key, factor) for key, factor in SLICING_RESIDUAL.items()]
        jobs *= 4
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda job: job[0](job[1]), jobs))
        assert results == [factor for _, _, factor in jobs]
