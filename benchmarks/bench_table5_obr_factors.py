"""Table V — maximum OBR amplification per FCDN x BCDN combination.

For each of the 11 usable combinations: search the largest overlap count
that survives both CDNs' header limits (the paper's max n), run the
attack once, and measure per-segment traffic and amplification.
"""

from repro.core.obr import obr_grid, vulnerable_combinations
from repro.reporting.paper_values import PAPER_TABLE5
from repro.reporting.render import render_table
from repro.reporting.tables import table5_rows_from_results

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
    combos = vulnerable_combinations()
    return table5_rows_from_results(run_grid(obr_grid(combos)), combos)


def test_table5_obr_factors(benchmark, output_dir):
    rows = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    assert len(rows) == 11
    rendered_rows = []
    for row in rows:
        paper_n, paper_bo, paper_fb, paper_factor = PAPER_TABLE5[(row.fcdn, row.bcdn)]
        assert abs(row.max_n - paper_n) <= max(2, paper_n * MAX_N_TOLERANCE), (
            f"{row.fcdn}->{row.bcdn}: max n {row.max_n} vs paper {paper_n}"
        )
        traffic_tolerance = (
            AZURE_TRAFFIC_TOLERANCE if row.bcdn == "azure" else TRAFFIC_TOLERANCE
        )
        assert abs(row.fcdn_bcdn_traffic - paper_fb) <= paper_fb * traffic_tolerance, (
            f"{row.fcdn}->{row.bcdn}: fcdn-bcdn {row.fcdn_bcdn_traffic} vs {paper_fb}"
        )
        assert abs(row.factor - paper_factor) <= paper_factor * FACTOR_TOLERANCE, (
            f"{row.fcdn}->{row.bcdn}: factor {row.factor:.0f} vs {paper_factor}"
        )
        rendered_rows.append(
            [
                row.fcdn,
                row.bcdn,
                row.exploited_case_prefix,
                f"{row.max_n} (paper {paper_n})",
                f"{row.bcdn_origin_traffic}B (paper {paper_bo}B)",
                f"{row.fcdn_bcdn_traffic}B (paper {paper_fb}B)",
                f"{row.factor:.2f} (paper {paper_factor})",
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
