"""Table V — maximum OBR amplification per FCDN x BCDN combination.

For each of the 11 usable combinations: search the largest overlap count
that survives both CDNs' header limits (the paper's max n), run the
attack once, and measure per-segment traffic and amplification.
"""

from repro.core.obr import ObrAttack, obr_grid, vulnerable_combinations
from repro.reporting.paper_values import PAPER_TABLE5
from repro.reporting.render import render_table

from benchmarks.conftest import run_grid, save_artifact

#: Tolerances: max n falls out of header-limit arithmetic (tight);
#: traffic and factor absorb the capture-model difference (see
#: EXPERIMENTS.md).  The Azure-BCDN rows move only ~64 small parts, so
#: the paper's per-packet capture overhead is a visibly larger share of
#: the total there.
MAX_N_TOLERANCE = 0.01
TRAFFIC_TOLERANCE = 0.06
AZURE_TRAFFIC_TOLERANCE = 0.16
FACTOR_TOLERANCE = 0.35


def _regenerate():
    return run_grid(obr_grid(vulnerable_combinations()))


def test_table5_obr_factors(benchmark, output_dir):
    results = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    assert len(results) == 11
    rendered_rows = []
    for fcdn, bcdn in vulnerable_combinations():
        result = results[(fcdn, bcdn)]
        max_n = result.overlap_count
        paper_n, paper_bo, paper_fb, paper_factor = PAPER_TABLE5[(fcdn, bcdn)]
        assert abs(max_n - paper_n) <= max(2, paper_n * MAX_N_TOLERANCE), (
            f"{fcdn}->{bcdn}: max n {max_n} vs paper {paper_n}"
        )
        traffic_tolerance = (
            AZURE_TRAFFIC_TOLERANCE if bcdn == "azure" else TRAFFIC_TOLERANCE
        )
        fcdn_bcdn = result.fcdn_bcdn_traffic
        assert abs(fcdn_bcdn - paper_fb) <= paper_fb * traffic_tolerance, (
            f"{fcdn}->{bcdn}: fcdn-bcdn {fcdn_bcdn} vs {paper_fb}"
        )
        factor = result.amplification
        assert abs(factor - paper_factor) <= paper_factor * FACTOR_TOLERANCE, (
            f"{fcdn}->{bcdn}: factor {factor:.0f} vs {paper_factor}"
        )
        rendered_rows.append(
            [
                fcdn,
                bcdn,
                ObrAttack(fcdn, bcdn).range_value(3) + ",...",
                f"{max_n} (paper {paper_n})",
                f"{result.bcdn_origin_traffic}B (paper {paper_bo}B)",
                f"{fcdn_bcdn}B (paper {paper_fb}B)",
                f"{factor:.2f} (paper {paper_factor})",
            ]
        )

    rendered = render_table(
        [
            "FCDN",
            "BCDN",
            "Exploited Range Case",
            "Max n",
            "Server->BCDN",
            "BCDN->FCDN",
            "Amplification",
        ],
        rendered_rows,
    )
    save_artifact(output_dir, "table5_obr_factors.txt", rendered)
