"""Tests for the command-line interface."""

import pytest

from repro.cli import main


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--m", "-1"],
            ["--m", "two"],
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


class TestReport:
    def test_quick_report_written(self, tmp_path, capsys):
        target = tmp_path / "out"
        assert main(["report", str(target), "--quick"]) == 0
        output = capsys.readouterr().out
        assert "table4_sbr_factors" in output
        assert (target / "table1_sbr_feasibility.md").exists()


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
