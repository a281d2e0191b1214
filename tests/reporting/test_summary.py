"""Tests for the full paper report, ``repro report --quick``.

The report is ``run_all`` + ``write_report`` plus Tables I–III and a
markdown twin of every table; the files it shares with ``run-all
--output-dir`` must be the run-all goldens byte for byte.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "runall_quick"

#: Every table the report writes as both .txt and .md.
TABLE_STEMS = {
    "table1_sbr_feasibility",
    "table2_obr_forwarding",
    "table3_obr_replying",
    "table4_sbr_factors",
    "table5_obr_factors",
    "fig6a_amplification_factors",
    "table_ccfc",
    "fig7_bandwidth",
}


def _report(output_dir: Path):
    assert main(["report", str(output_dir), "--quick"]) == 0
    return sorted(path for path in output_dir.rglob("*") if path.is_file())


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    output_dir = tmp_path_factory.mktemp("report")
    return output_dir, _report(output_dir)


class TestGeneration:
    def test_all_artifacts_written_in_both_formats(self, report):
        output_dir, written = report
        names = {path.name for path in written}
        expected = {f"{stem}.{suffix}" for stem in TABLE_STEMS for suffix in ("txt", "md")}
        expected |= {"table7_recommendations.txt", "table7_recommendations.json"}
        assert names == expected
        assert all(path.stat().st_size > 0 for path in written)

    def test_shared_artifacts_match_the_run_all_golden(self, report):
        output_dir, _ = report
        goldens = sorted(GOLDEN.iterdir())
        assert goldens
        for golden in goldens:
            assert (output_dir / golden.name).read_bytes() == golden.read_bytes(), (
                golden.name
            )

    def test_table4_mentions_paper_values(self, report):
        output_dir, _ = report
        content = (output_dir / "table4_sbr_factors.txt").read_text()
        assert "(1707)" in content  # Akamai's paper factor at 1 MB
        assert "Akamai" in content

    def test_markdown_is_table_shaped(self, report):
        output_dir, _ = report
        for stem in TABLE_STEMS:
            lines = (output_dir / f"{stem}.md").read_text().splitlines()
            assert lines[0].startswith("| ") and lines[0].endswith(" |"), stem
            assert lines[1].startswith("|---"), stem
        content = (output_dir / "table5_obr_factors.md").read_text()
        assert content.startswith("| FCDN |")

    def test_fig7_quick_rows(self, report):
        output_dir, _ = report
        content = (output_dir / "fig7_bandwidth.txt").read_text()
        assert "yes" in content and "no" in content  # both regimes present

    def test_creates_missing_directories(self, tmp_path):
        nested = tmp_path / "a" / "b"
        written = _report(nested)
        assert nested.exists()
        assert written
