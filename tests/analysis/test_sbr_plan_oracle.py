"""Oracle for the SBR fetch plan: every registry vendor's bound, derived
from its profile (decision table plus declared fetch-flow fields), equals
the per-vendor plan table the bound used to spell out by name.

The table below is that reference, frozen: the exploited cases of
Table IV column 2 and the worst-case back-to-origin exchanges of one
attack round (§V-A), folded into the bound with the same allowances
:mod:`repro.analysis.bounds` uses.  Checked over random sizes up to
64 MiB under both overhead models, and at every size switch explicitly.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.bounds import (
    ORIGIN_HEADER_ALLOWANCE,
    PAD_HEADER_SLACK,
    RESPONSE_WIRE_FLOOR,
    sbr_bound,
)
from repro.cdn.vendors import all_vendor_names, profile_class
from repro.netsim.overhead import NullOverheadModel, TcpOverheadModel

MB = 1 << 20
EIGHT_MB = 8 * MB
WINDOW_LAST = 16 * MB - 1
ABORT_SLOP = 64 * 1024
CLOUDFRONT_WINDOW = 10 * MB

#: Every size at which some vendor's cases or plan switch.
SWITCH_EDGES = (
    EIGHT_MB,
    EIGHT_MB + 1,
    10 * MB - 1,
    10 * MB,
    16 * MB - 1,
    16 * MB,
)

MODELS = {"null": NullOverheadModel(), "tcp": TcpOverheadModel()}


def frozen_cases(vendor, size):
    """Table IV column 2 as a table keyed on vendor names."""
    if vendor == "alibaba":
        return ("bytes=-1",)
    if vendor == "azure":
        return ("bytes=0-0",) if size <= EIGHT_MB else ("bytes=8388608-8388608",)
    if vendor == "huawei":
        return ("bytes=-1",) if size < 10 * MB else ("bytes=0-0",)
    if vendor == "cloudfront":
        return ("bytes=0-0,9437184-9437184",)
    if vendor == "keycdn":
        return ("bytes=0-0", "bytes=0-0")
    return ("bytes=0-0",)


def frozen_plan(vendor, size):
    """``(payload upper bound, delivery cap)`` per origin exchange."""
    if vendor in ("keycdn", "stackpath"):
        # A lazy single-byte 206, then the full representation.
        return [(1, None), (size, None)]
    if vendor == "azure":
        plan = [(size, EIGHT_MB + ABORT_SLOP)]
        if size > EIGHT_MB:
            # Second connection with Range: bytes=8388608-16777215.
            plan.append((max(0, min(size - 1, WINDOW_LAST) - EIGHT_MB + 1), None))
        return plan
    if vendor == "cloudfront":
        return [(min(size, CLOUDFRONT_WINDOW), None)]
    return [(size, None)]


def frozen_bound(vendor, size, model):
    """``(cases, fetches, origin upper, responses, client lower)``."""
    origin_upper = 0
    plan = frozen_plan(vendor, size)
    for payload, cap in plan:
        sent = (
            model.framed_size(payload + ORIGIN_HEADER_ALLOWANCE)
            + model.connection_setup_bytes()
        )
        if cap is not None:
            sent = min(sent, cap + ORIGIN_HEADER_ALLOWANCE)
        origin_upper += sent
    cases = frozen_cases(vendor, size)
    per_response = max(
        RESPONSE_WIRE_FLOOR,
        profile_class(vendor).client_header_block_target - PAD_HEADER_SLACK,
    )
    return cases, len(plan), origin_upper, len(cases), len(cases) * per_response


def derived_bound(vendor, size, model):
    bound = sbr_bound(vendor, size, overhead=model)
    return (
        bound.range_cases,
        bound.origin_fetches,
        bound.origin_bytes_upper,
        bound.client_responses,
        bound.client_bytes_lower,
    )


@given(
    vendor=st.sampled_from(all_vendor_names()),
    size=st.integers(min_value=1, max_value=64 * MB),
    model=st.sampled_from(sorted(MODELS)),
)
def test_derived_plan_equals_the_frozen_table(vendor, size, model):
    overhead = MODELS[model]
    assert derived_bound(vendor, size, overhead) == frozen_bound(vendor, size, overhead)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("size", SWITCH_EDGES)
@pytest.mark.parametrize("vendor", all_vendor_names())
def test_switch_edges(vendor, size, model):
    overhead = MODELS[model]
    assert derived_bound(vendor, size, overhead) == frozen_bound(vendor, size, overhead)
