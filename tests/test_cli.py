"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.analysis.classify import MAX_OVERLAPS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "cli"


class TestVendors:
    def test_lists_all_13(self, capsys):
        assert main(["vendors"]) == 0
        output = capsys.readouterr().out
        for name in ("akamai", "cloudflare", "tencent", "gcore"):
            assert name in output


class TestSbr:
    def test_runs_and_reports(self, capsys):
        assert main(["sbr", "akamai", "--size-mb", "1"]) == 0
        output = capsys.readouterr().out
        assert "amplification" in output
        assert "1707" in output.replace(",", "") or "170" in output

    def test_rounds_flag(self, capsys):
        assert main(["sbr", "gcore", "--size-mb", "1", "--rounds", "3"]) == 0
        assert "3 round(s)" in capsys.readouterr().out

    def test_unknown_vendor_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["sbr", "notacdn"])


class TestObr:
    def test_runs_with_explicit_n(self, capsys):
        assert main(["obr", "cloudflare", "akamai", "--overlaps", "64"]) == 0
        output = capsys.readouterr().out
        assert "overlap count n:   64" in output
        assert "amplification" in output

    def test_self_cascade_is_a_clean_error(self, capsys):
        assert main(["obr", "akamai", "akamai", "--overlaps", "4"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_largest_overlap_count_is_accepted(self, capsys):
        assert main(["obr", "cdn77", "akamai", "--overlaps", str(MAX_OVERLAPS)]) == 0
        assert f"overlap count n:   {MAX_OVERLAPS}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "value", ["0", "-5", "two", str(MAX_OVERLAPS + 1), "100000000"]
    )
    def test_bad_overlap_counts_are_usage_errors(self, capsys, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["obr", "cdn77", "akamai", "--overlaps", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro obr")
        assert "argument --overlaps:" in err
        assert "admits no overlapping ranges" not in err
        assert "Traceback" not in err


class TestSurvey:
    def test_prints_three_tables(self, capsys):
        assert main(["survey"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "Table II" in output
        assert "Table III" in output
        assert "StackPath" in output


class TestFlood:
    def test_saturated_marker(self, capsys):
        assert main(["flood", "--m", "14"]) == 0
        assert "SATURATED" in capsys.readouterr().out

    def test_below_saturation(self, capsys):
        assert main(["flood", "--m", "2"]) == 0
        assert "SATURATED" not in capsys.readouterr().out

    def test_largest_m_is_accepted(self, capsys):
        assert main(["flood", "--m", "1000"]) == 0
        assert capsys.readouterr().out.startswith("m=1000 SBR req/s")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--m", "-1"],
            ["--m", "two"],
            ["--m", "1001"],
            ["--m", "100000"],
            ["--uplink-mbps", "nan"],
            ["--uplink-mbps", "inf"],
            ["--uplink-mbps", "0"],
            ["--uplink-mbps", "-5"],
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(["flood", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro flood")
        assert f"argument {argv[0]}:" in err
        assert "Traceback" not in err


class TestMatrix:
    def test_prints_all_vendors_and_policies(self, capsys):
        assert main(["matrix"]) == 0
        output = capsys.readouterr().out
        for vendor in ("akamai", "cloudfront", "keycdn"):
            assert vendor in output
        assert "DEL" in output and "EXP" in output and "lazy" in output

    def test_output_matches_golden(self, capsys):
        assert main(["matrix"]) == 0
        golden = (GOLDEN_DIR / "matrix.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden


class TestReport:
    def test_quick_report_written(self, tmp_path, capsys):
        target = tmp_path / "out"
        assert main(["report", str(target), "--quick"]) == 0
        output = capsys.readouterr().out
        assert "table4_sbr_factors" in output
        assert (target / "table1_sbr_feasibility.md").exists()


class TestOutputDirIsAFile:
    """An output directory that is an existing file is refused before
    any work runs: exit 2 with a usage error, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "{path}", "--quick"],
            ["report", "{path}/sub", "--quick"],
            ["run-all", "--quick", "--no-progress", "--output-dir", "{path}"],
        ],
    )
    def test_is_a_usage_error(self, tmp_path, capsys, argv):
        path = tmp_path / "taken"
        path.write_text("not a directory")
        assert main([arg.format(path=path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error:")
        assert "is not a directory" in captured.err
        assert "Traceback" not in captured.err
        # Refused up front: no grid ran, nothing was printed.
        assert captured.out == ""


class TestNumericArguments:
    """Sizes, rounds and campaign rates must be positive (and finite)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sbr", "akamai", "--size-mb", "-1"],
            ["sbr", "akamai", "--size-mb", "0"],
            ["sbr", "akamai", "--rounds", "0"],
            ["economics", "sbr", "akamai", "--size-mb", "-2"],
            ["analyze", "--size-mb", "-1"],
            ["analyze", "--ccfc-size-mb", "-3"],
            ["analyze", "--obr-size", "0"],
            ["recommend", "--size-mb", "0"],
            ["economics", "sbr", "akamai", "--rps", "nan"],
            ["economics", "sbr", "akamai", "--hours", "inf"],
            ["economics", "sbr", "akamai", "--hours", "-1"],
        ],
    )
    def test_bad_arguments_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]}")
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"argument {flag}:" in err
        assert "Traceback" not in err


class TestRunAllLabel:
    """The bench label, its mode and the printed fast-path line all
    follow from whether the planner ran; observability flags skip it
    just as --exact does."""

    @pytest.mark.parametrize(
        "flags,label,mode",
        [
            ([], "run-all-quick", "fast"),
            (["--exact"], "run-all-quick-exact", "exact"),
            (["--metrics", "m.prom"], "run-all-quick-exact", "exact"),
        ],
    )
    def test_label_matches_mode(self, tmp_path, monkeypatch, capsys, flags, label, mode):
        from repro.reporting.bench import load_bench

        monkeypatch.chdir(tmp_path)
        argv = ["run-all", "--quick", "--no-progress"]
        assert main(argv + flags + ["--bench", "b.json"]) == 0
        output = capsys.readouterr().out
        bench = load_bench(tmp_path / "b.json")
        assert (bench.label, bench.mode) == (label, mode)
        # The summary counts cells and seconds; no worker count, no speedup.
        summary = output.splitlines()[0]
        assert summary.startswith(f"run-all: {bench.cell_count} cells in ")
        assert "worker" not in summary and "x)" not in summary
        if mode == "fast":
            assert "cells answered before the grid" in output
        else:
            assert "fast path: disabled" in output


class TestRunAllHasNoWorkerFlag:
    def test_workers_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run-all", "--quick", "--workers", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro")
        assert "unrecognized arguments: --workers 2" in err


class TestEconomics:
    def test_sbr_campaign(self, capsys):
        assert main(
            ["economics", "sbr", "akamai", "--size-mb", "1", "--rps", "1", "--hours", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "victim bill" in output
        assert "$" in output

    def test_obr_campaign(self, capsys):
        assert main(["economics", "obr", "cloudflare:akamai", "--rps", "1"]) == 0
        assert "OBR campaign" in capsys.readouterr().out

    def test_bad_sbr_vendor(self, capsys):
        assert main(["economics", "sbr", "notacdn"]) == 2

    def test_bad_obr_pair(self, capsys):
        assert main(["economics", "obr", "akamai:akamai"]) == 2

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
