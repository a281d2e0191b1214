"""Table IV — SBR amplification factors at 1 / 10 / 25 MB.

Runs every vendor's exploited range case against each resource size and
compares the measured amplification factor with the paper's, enforcing
the per-vendor tolerance bands documented in EXPERIMENTS.md.
"""

from repro.cdn.vendors import all_vendor_names
from repro.core.sbr import sbr_grid
from repro.reporting.paper_values import PAPER_TABLE4_FACTORS
from repro.reporting.render import render_table
from repro.reporting.tables import table4_rows_from_results

from benchmarks.conftest import run_grid, save_artifact

MB = 1 << 20
SIZES = (1 * MB, 10 * MB, 25 * MB)

#: Relative tolerance against Table IV (plateau vendors are wider — their
#: cut-off arithmetic embeds testbed timing the simulator idealizes).
TOLERANCE = {"azure": 0.15, "cloudfront": 0.20, "keycdn": 0.10}
DEFAULT_TOLERANCE = 0.08


def _regenerate():
    vendors = all_vendor_names()
    results = run_grid(sbr_grid(vendors, SIZES, name="table4-sbr"))
    return table4_rows_from_results(results, vendors, SIZES)


def test_table4_sbr_factors(benchmark, output_dir):
    rows = benchmark.pedantic(_regenerate, rounds=1, iterations=1)

    rendered_rows = []
    for row in rows:
        paper = PAPER_TABLE4_FACTORS[row.vendor]
        tolerance = TOLERANCE.get(row.vendor, DEFAULT_TOLERANCE)
        for size in SIZES:
            deviation = abs(row.factors[size] - paper[size]) / paper[size]
            assert deviation <= tolerance, (
                f"{row.vendor} at {size // MB} MB: measured "
                f"{row.factors[size]:.0f} vs paper {paper[size]} "
                f"({deviation:.1%} > {tolerance:.0%})"
            )
        rendered_rows.append(
            [
                row.display_name,
                " & ".join(row.exploited_cases),
                *(
                    f"{row.factors[size]:.0f} (paper {paper[size]})"
                    for size in SIZES
                ),
            ]
        )

    rendered = render_table(
        ["CDN", "Exploited Range Case", "1MB", "10MB", "25MB"], rendered_rows
    )
    save_artifact(output_dir, "table4_sbr_factors.txt", rendered)
