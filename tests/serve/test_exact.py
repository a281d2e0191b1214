"""Serve's exact factors are the attack families' wire simulations.

``"exact": true`` answers an item with its family's clean simulation:
``SbrAttack``/``CcfcAttack.run()`` for a vendor, ``ObrAttack.run`` at the
static max n for a cascade — the same n the OBR bound reports.
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import static_max_n
from repro.cdn.vendors import all_vendor_names
from repro.core.ccfc import CcfcAttack
from repro.core.obr import ObrAttack, vulnerable_combinations
from repro.core.sbr import SbrAttack
from repro.serve.app import AnalysisService

from tests.serve.conftest import batch_request, body_json

KB = 1024
MB = 1 << 20

SERVICE = AnalysisService()


def exact(item):
    response = SERVICE.handle(batch_request("/v1/analyze", [dict(item, exact=True)]))
    payload = body_json(response)
    assert payload["degraded"] is False
    (result,) = payload["results"]
    return result


def obr_simulation(fcdn, bcdn, size):
    n = static_max_n(fcdn, bcdn, resource_size=size)
    return ObrAttack(fcdn, bcdn, resource_size=size).run(overlap_count=n).amplification


@pytest.mark.parametrize("size", [KB, MB])
@pytest.mark.parametrize("fcdn,bcdn", vulnerable_combinations())
def test_obr_exact_factor_is_the_cascade_simulation_at_static_max_n(fcdn, bcdn, size):
    result = exact({"fcdn": fcdn, "bcdn": bcdn, "size": size})
    assert result["finding"]["kind"] == "obr"
    assert result["exact_factor"] == round(obr_simulation(fcdn, bcdn, size), 2)
    assert result["exact_factor"] <= result["finding"]["factor_bound"]


def test_obr_exact_factor_stays_within_its_bound_at_8mb():
    over = []
    for fcdn, bcdn in vulnerable_combinations():
        result = exact({"fcdn": fcdn, "bcdn": bcdn, "size": 8 * MB})
        assert result["exact_factor"] == round(obr_simulation(fcdn, bcdn, 8 * MB), 2)
        if result["exact_factor"] > result["finding"]["factor_bound"]:
            over.append((fcdn, bcdn))
    assert over == []


@pytest.mark.parametrize("size", [KB, MB])
@pytest.mark.parametrize("attack,cls", [("sbr", SbrAttack), ("ccfc", CcfcAttack)])
def test_vendor_exact_factors_are_the_attack_runs(attack, cls, size):
    measured = 0
    for vendor in all_vendor_names():
        result = exact({"vendor": vendor, "attack": attack, "size": size})
        if result["finding"]["kind"] == "safe":
            assert "exact_factor" not in result
            continue
        want = round(cls(vendor, resource_size=size).run().amplification, 2)
        assert result["exact_factor"] == want, vendor
        measured += 1
    assert measured > 0
