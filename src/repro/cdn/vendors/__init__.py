"""Vendor profile registry.

One profile class per CDN the paper examined, keyed by a short
registry name.  Profiles are immutable values (what KeyCDN remembers
between requests lives in the edge node), so :func:`create_profile`
returns the one shared instance per vendor, built on first use.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.cdn.vendors.akamai import AkamaiProfile
from repro.cdn.vendors.alibaba import AlibabaProfile
from repro.cdn.vendors.azure import AzureProfile
from repro.cdn.vendors.base import FetchResult, VendorConfig, VendorContext, VendorProfile
from repro.cdn.vendors.cdn77 import Cdn77Profile
from repro.cdn.vendors.cdnsun import CdnsunProfile
from repro.cdn.vendors.cloudflare import CloudflareProfile
from repro.cdn.vendors.cloudfront import CloudFrontProfile
from repro.cdn.vendors.fastly import FastlyProfile
from repro.cdn.vendors.gcore import GcoreProfile
from repro.cdn.vendors.huawei import HuaweiProfile
from repro.cdn.vendors.keycdn import KeycdnProfile
from repro.cdn.vendors.stackpath import StackpathProfile
from repro.cdn.vendors.tencent import TencentProfile
from repro.errors import UnknownVendorError

_REGISTRY: Dict[str, Type[VendorProfile]] = {
    profile.name: profile
    for profile in (
        AkamaiProfile,
        AlibabaProfile,
        AzureProfile,
        Cdn77Profile,
        CdnsunProfile,
        CloudflareProfile,
        CloudFrontProfile,
        FastlyProfile,
        GcoreProfile,
        HuaweiProfile,
        KeycdnProfile,
        StackpathProfile,
        TencentProfile,
    )
}

#: The CDNs the paper found usable as the OBR attack's front-end
#: (Table II) and back-end (Table III).
OBR_FRONTENDS = ("cdn77", "cdnsun", "cloudflare", "stackpath")
OBR_BACKENDS = ("akamai", "azure", "stackpath")
#: The Table V cascades the quick run-all grid measures.
QUICK_TABLE5_COMBOS = (("cloudflare", "akamai"), ("cdn77", "azure"))


def all_vendor_names() -> List[str]:
    """Registry names of all 13 modeled CDNs, sorted."""
    return sorted(_REGISTRY)


def profile_class(name: str) -> Type[VendorProfile]:
    """Look up a profile class by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownVendorError(name) from None


#: The shared registry instances, by name, built on first use.
_INSTANCES: Dict[str, VendorProfile] = {}


def create_profile(name: str) -> VendorProfile:
    """The shared profile for ``name`` (threads racing on its first use
    all get the instance stored first)."""
    profile = _INSTANCES.get(name)
    return profile if profile is not None else _INSTANCES.setdefault(name, profile_class(name)())


__all__ = [
    "AkamaiProfile",
    "AlibabaProfile",
    "AzureProfile",
    "Cdn77Profile",
    "CdnsunProfile",
    "CloudFrontProfile",
    "CloudflareProfile",
    "FastlyProfile",
    "FetchResult",
    "GcoreProfile",
    "HuaweiProfile",
    "KeycdnProfile",
    "OBR_BACKENDS",
    "OBR_FRONTENDS",
    "QUICK_TABLE5_COMBOS",
    "StackpathProfile",
    "TencentProfile",
    "VendorConfig",
    "VendorContext",
    "VendorProfile",
    "all_vendor_names",
    "create_profile",
    "profile_class",
]
