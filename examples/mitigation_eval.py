#!/usr/bin/env python3
"""Evaluate the paper's §VI-C mitigations.

Shows, for each proposed fix, the before/after amplification factor.

Usage::

    python examples/mitigation_eval.py
"""

from repro import (
    ObrAttack,
    SbrAttack,
    create_profile,
    with_bounded_expansion,
    with_laziness,
    with_overlap_rejection,
)
from repro.core.deployment import CdnSpec, Deployment
from repro.netsim.tap import CDN_ORIGIN, CLIENT_CDN
from repro.origin.server import OriginServer
from repro.reporting.render import render_table

MB = 1 << 20


def _sbr_factor(profile) -> float:
    origin = OriginServer()
    origin.add_synthetic_resource("/target.bin", 10 * MB)
    deployment = Deployment.single(CdnSpec(profile=profile), origin)
    deployment.client().get("/target.bin?cb=0", range_value="bytes=0-0")
    client = deployment.response_traffic(CLIENT_CDN)
    return deployment.response_traffic(CDN_ORIGIN) / client if client else 0.0


def mitigations() -> None:
    baseline = SbrAttack("gcore", resource_size=10 * MB).run().amplification
    lazy = _sbr_factor(with_laziness(create_profile("gcore")))
    bounded = _sbr_factor(with_bounded_expansion(create_profile("gcore")))

    obr = ObrAttack("cloudflare", "akamai")
    obr_baseline = obr.run().amplification

    guarded = ObrAttack("cloudflare", "akamai")
    original_build = guarded.build_deployment

    def build_with_guard():
        deployment = original_build()
        deployment.nodes[1].profile = with_overlap_rejection(deployment.nodes[1].profile)
        return deployment

    guarded.build_deployment = build_with_guard  # type: ignore[method-assign]
    guarded_n = guarded.find_max_n()
    obr_guarded = (
        guarded.run(overlap_count=guarded_n).amplification if guarded_n else 0.0
    )

    print(
        render_table(
            ["Attack", "Mitigation (paper §VI-C)", "Amplification"],
            [
                ["SBR vs G-Core @10MB", "none", f"{baseline:.0f}x"],
                ["SBR vs G-Core @10MB", "Laziness ('slice' option)", f"{lazy:.1f}x"],
                ["SBR vs G-Core @10MB", "bounded expansion (+8KB)", f"{bounded:.1f}x"],
                ["OBR Cloudflare->Akamai", "none", f"{obr_baseline:.0f}x"],
                [
                    "OBR Cloudflare->Akamai",
                    f"RFC7233 §6.1 guard (max n={guarded_n})",
                    f"{obr_guarded:.1f}x",
                ],
            ],
        )
    )


if __name__ == "__main__":
    mitigations()
