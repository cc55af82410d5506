import codecs
import dataclasses
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    HP_OVERFLOW_CSV,
    OLS_SCALE_OVERFLOW_CSV,
    OVERFLOWING_INDEX_CSV,
    UNIT_ZETA_CSV,
    build_series,
    canonical_series,
    scenario_to_text,
    steady_scenario,
)
from steadycredit import synth
from steadycredit.cli import build_parser, main
from steadycredit.rates import RatePoint
from steadycredit.report import analyze, dump_json, render_svg, to_json_dict
from steadycredit.series import CSV_HEADER, CreditSeries, Quarter, Window, csv_text, emit_csv

GOLDEN_DIR = Path(__file__).parent / "golden"

GAPPED_CSV = (
    "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
    "2008-Q2,910e9,3.6e9,,\n"
    "2009-Q1,915e9,3.8e9,,\n"
)

# at one significant digit (STEADYCREDIT_PRECISION=1) its 1.7e308 rounds to 2e+308,
# past the float range, so the JSON writers refuse it
HUGE_CSV = (
    "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
    "2008-Q1,1e8,0,,\n"
    "2008-Q2,1.7e308,0,,\n"
    "2008-Q3,1e8,0,,\n"
)


@pytest.fixture
def canonical_csv(tmp_path) -> Path:
    path = tmp_path / "canonical.csv"
    path.write_text(emit_csv(canonical_series()), encoding="utf-8")
    return path


@pytest.fixture
def tiny_gdp_csv(tmp_path) -> Path:
    """Canonical series with one GDP of 1e-300, whose credit-to-GDP ratio overflows."""
    obs = list(canonical_series().observations)
    obs[20] = dataclasses.replace(obs[20], gdp=1e-300)
    path = tmp_path / "tiny_gdp.csv"
    path.write_text(emit_csv(CreditSeries(tuple(obs))), encoding="utf-8")
    return path


def _replace_cell(path: Path, lineno: int, column: str, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[lineno - 1].split(",")
    cells[CSV_HEADER.index(column)] = value
    lines[lineno - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def scenario_file(tmp_path) -> Path:
    path = tmp_path / "h1.cfg"
    path.write_text(scenario_to_text(steady_scenario()), encoding="utf-8")
    return path


class TestValidate:
    def test_valid_file(self, canonical_csv, capsys):
        assert main(["validate", "--input", str(canonical_csv)]) == 0
        assert capsys.readouterr().out.startswith("OK: 34 observations")

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_byte_order_mark_is_dropped(self, canonical_csv, tmp_path, command, capsys):
        # spreadsheet "CSV UTF-8" exports start with the UTF-8 byte-order mark
        marked = tmp_path / "bom.csv"
        marked.write_bytes(codecs.BOM_UTF8 + canonical_csv.read_bytes())
        assert main([command, "--input", str(canonical_csv)]) == 0
        plain = capsys.readouterr()
        assert main([command, "--input", str(marked)]) == 0
        assert capsys.readouterr() == plain
        if command == "validate":
            assert plain.out == "OK: 34 observations, 2005-Q1..2013-Q2\n"

    def test_gapped_file_names_missing_quarter(self, tmp_path, capsys):
        path = tmp_path / "gapped.csv"
        path.write_text(GAPPED_CSV, encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "2008-Q3" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--input", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("column", CSV_HEADER[1:])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_amount_names_line(self, canonical_csv, column, value, capsys):
        _replace_cell(canonical_csv, 6, column, value)
        assert main(["validate", "--input", str(canonical_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: line 6: ")
        assert "must be finite" in captured.err

    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text(f"{','.join(CSV_HEADER)}\n2008-Q1,{'1' * 140_000},1,,\n",
                        encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: field larger than field limit (131072)\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["validate"]) == 2

    def test_simulate_requires_seed(self, scenario_file, capsys):
        assert main(["simulate", "--scenario", str(scenario_file)]) == 2

    def test_window_flags_conflict(self, canonical_csv, capsys):
        code = main([
            "ols", "--input", str(canonical_csv), "--window", "crisis",
            "--from", "2008-Q2", "--to", "2012-Q2",
        ])
        assert code == 2

    def test_from_without_to(self, canonical_csv, capsys):
        assert main(["ols", "--input", str(canonical_csv), "--from", "2008-Q2"]) == 2

    @pytest.mark.parametrize("window", [[], ["--window", "crisis"]])
    def test_inclusivity_flag_without_from_and_to(self, canonical_csv, window, capsys):
        assert main(["analyze", "--input", str(canonical_csv), *window,
                     "--no-inclusive-to"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: --inclusive-from/--inclusive-to need --from and --to\n")

    @pytest.mark.parametrize("flags", [
        ["--window", "crisis", "--from", "2008-Q1", "--to", "2009-Q1"],
        ["--from", "2008-Q1"],
        ["--inclusive-from"],
    ], ids=["window-with-from-to", "from-without-to", "inclusivity-without-from-to"])
    @pytest.mark.parametrize("content", [None, b"\xff\n", b"quarter,tcu\n2008-Q1,1\n"],
                             ids=["missing", "not-utf8", "bad-header"])
    def test_flag_rules_are_checked_before_the_input_is_read(self, tmp_path, flags, content,
                                                             capsys):
        path = tmp_path / "input.csv"
        if content is not None:
            path.write_bytes(content)
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "rates.csv"
        assert main(["rates", "--input", str(path), *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before


class TestSimulatePipeline:
    def test_simulate_then_ssp_recovers_zeta(self, scenario_file, tmp_path, capsys):
        out_csv = tmp_path / "synth.csv"
        assert main([
            "simulate", "--scenario", str(scenario_file),
            "--seed", "42", "--out", str(out_csv),
        ]) == 0
        json_path = tmp_path / "ssp.json"
        assert main([
            "ssp", "--input", str(out_csv), "--json", str(json_path),
        ]) == 0
        doc = json.loads(json_path.read_text())
        assert abs(doc["least_squares"]["zeta"] - 0.00245) <= 1e-12
        assert abs(doc["irr_root"]["zeta"] - 0.00245) <= 1e-10

    def test_seed_changes_output(self, scenario_file, tmp_path):
        noisy = tmp_path / "noisy.cfg"
        noisy.write_text(
            scenario_to_text(steady_scenario(noise_sigma=0.004)), encoding="utf-8"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--scenario", str(noisy), "--seed", "1", "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(noisy), "--seed", "2", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()

    def test_bad_start_names_its_line(self, tmp_path, capsys):
        scenario = tmp_path / "bad.cfg"
        text = scenario_to_text(steady_scenario())
        scenario.write_text(text.replace("start=2008-Q1", "start=2008-Q7"), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: line 2: bad quarter '2008-Q7', expected YYYY-Qn\n"

    def test_non_finite_scenario_value_names_its_key(self, tmp_path, capsys):
        scenario = tmp_path / "nan.cfg"
        text = scenario_to_text(steady_scenario())
        scenario.write_text(text.replace("noise_sigma=0.0", "noise_sigma=nan"), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: noise_sigma must be finite, got nan\n"

    @pytest.mark.parametrize("text, seed, message", [
        ("", "-1", "seed must be >= 0, got -1"),
        # 9999-Q2 plus seven quarters would print a quarter parse_csv refuses
        ("n_quarters=8\nstart=9999-Q2\n", "1", "n_quarters from 9999-Q2 must be <= 3, got 8"),
        # refused as a record, before generate makes a list of 10**20 - 1 noise values
        (f"n_quarters={10**20}\nnoise_sigma=0.0\n", "1",
         f"n_quarters from 2008-Q1 must be <= 31968, got {10**20}"),
    ])
    def test_bad_scenario_is_one_line_error(self, tmp_path, text, seed, message, capsys):
        scenario = tmp_path / "bad.cfg"
        noisy = scenario_to_text(steady_scenario(noise_sigma=0.004))
        scenario.write_text(noisy + text, encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_utf8_scenario_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"n_quarters=18\nhypothesis=H1 \xff\n")
        assert main(["simulate", "--scenario", str(path), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: not UTF-8 text, invalid start byte at byte offset 28\n"
        )


class TestAnalyze:
    def test_report_with_window_flags(self, canonical_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "analyze", "--input", str(canonical_csv),
            "--from", "2008-Q2", "--to", "2012-Q2",
            "--inclusive-from", "--inclusive-to",
            "--json", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 17
        assert doc["gap"] is not None

    def test_pre2008_named_window(self, tmp_path):
        scenario = steady_scenario(n_quarters=67, start=synth.Quarter(1995, 4), seed=1)
        series, _ = synth.generate(scenario)
        path = tmp_path / "long.csv"
        path.write_text(emit_csv(series), encoding="utf-8")
        out = tmp_path / "early.json"
        assert main(["analyze", "--input", str(path), "--window", "pre2008",
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 49
        assert doc["window"]["to_inclusive"] is False

    def test_named_window_matches_explicit_flags(self, canonical_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", "--input", str(canonical_csv), "--window", "crisis",
                     "--json", str(a)]) == 0
        assert main(["analyze", "--input", str(canonical_csv),
                     "--from", "2008-Q2", "--to", "2012-Q2",
                     "--inclusive-from", "--inclusive-to", "--json", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_deterministic_and_input_untouched(self, canonical_csv, tmp_path):
        before = hashlib.sha256(canonical_csv.read_bytes()).hexdigest()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["analyze", "--input", str(canonical_csv),
                         "--window", "crisis", "--json", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert hashlib.sha256(canonical_csv.read_bytes()).hexdigest() == before

    def test_non_utf8_input_names_the_file(self, canonical_csv, capsys):
        data = canonical_csv.read_bytes()
        offset = data.index(b"2006-Q1")
        canonical_csv.write_bytes(data[:offset] + b"\xff" + data[offset:])
        assert main(["analyze", "--input", str(canonical_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {canonical_csv}: not UTF-8 text, invalid start byte at byte offset {offset}\n"
        )

    def test_non_utf8_input_after_a_byte_order_mark_counts_the_mark(self, canonical_csv,
                                                                    capsys):
        data = codecs.BOM_UTF8 + canonical_csv.read_bytes()
        offset = data.index(b"2006-Q1")
        canonical_csv.write_bytes(data[:offset] + b"\xff" + data[offset:])
        assert main(["analyze", "--input", str(canonical_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {canonical_csv}: not UTF-8 text, invalid start byte at byte offset {offset}\n"
        )

    def test_precision_env_var(self, canonical_csv, tmp_path, monkeypatch, capsys):
        out_default = tmp_path / "p6.json"
        assert main(["analyze", "--input", str(canonical_csv), "--window", "crisis",
                     "--json", str(out_default)]) == 0
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "2")
        out_coarse = tmp_path / "p2.json"
        assert main(["analyze", "--input", str(canonical_csv), "--window", "crisis",
                     "--json", str(out_coarse)]) == 0
        assert out_default.read_text() != out_coarse.read_text()

    @pytest.mark.parametrize("digits", ["18", "400", "2147483648", str(10**20)])
    def test_precision_above_17_writes_the_bytes_of_17(self, canonical_csv, digits,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "17")
        assert main(["analyze", "--input", str(canonical_csv)]) == 0
        at_17 = capsys.readouterr()
        monkeypatch.setenv("STEADYCREDIT_PRECISION", digits)
        assert main(["analyze", "--input", str(canonical_csv)]) == 0
        assert capsys.readouterr() == at_17

    @pytest.mark.parametrize("digits, message", [
        ("0", "STEADYCREDIT_PRECISION must be >= 1, got 0"),
        ("x", "STEADYCREDIT_PRECISION must be an integer, got 'x'"),
        # int() reads these as 17; an integer text is ASCII without digit separators
        ("1_7", "STEADYCREDIT_PRECISION must be an integer, got '1_7'"),
        ("\uff117", "STEADYCREDIT_PRECISION must be an integer, got '\uff117'"),
    ])
    def test_unusable_precision_is_a_one_line_error(self, canonical_csv, digits, message,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("STEADYCREDIT_PRECISION", digits)
        assert main(["analyze", "--input", str(canonical_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestOtherCommands:
    def test_rates_csv(self, canonical_csv, capsys):
        assert main(["rates", "--input", str(canonical_csv), "--window", "crisis"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "interval_end,d,f,f_source"
        assert len(lines) == 18

    def test_rates_and_ols_print_the_sample_of_analyze(self, tmp_path, capsys):
        # tcu 1e-300 after 1e300 underflows f to -1.0 at 2008-Q2, which no
        # RatePoint accepts; a window after it never computes that point
        tcu = [1e300, 1e-300] + [1e-300 * 1.01**i for i in range(1, 12)]
        abd = [0.0, 0.0] + [1e-303 * (1 + i % 3) for i in range(1, 12)]
        series = build_series(tcu, abd)
        path = tmp_path / "underflow.csv"
        path.write_text(emit_csv(series), encoding="utf-8")
        report = analyze(series, Window(Quarter(2008, 4), Quarter(2010, 4)))
        assert report.n == 9 and report.ols_fit is not None
        window = ["--from", "2008-Q4", "--to", "2010-Q4"]
        assert main(["rates", "--input", str(path), *window]) == 0
        assert capsys.readouterr().out == csv_text(RatePoint._fields, report.rates_in.points)
        assert main(["ols", "--input", str(path), *window]) == 0
        assert capsys.readouterr().out == dump_json(to_json_dict(report)["ols"])

    def test_ols_json_to_stdout(self, canonical_csv, capsys):
        assert main(["ols", "--input", str(canonical_csv), "--window", "crisis",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 17

    def test_cycles_json_and_csv(self, canonical_csv, tmp_path, capsys):
        overlay = tmp_path / "overlay.csv"
        assert main(["cycles", "--input", str(canonical_csv), "--window", "crisis",
                     "--csv", str(overlay)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "frequency_cycles_per_year" in doc
        assert overlay.read_text().splitlines()[0].startswith("index,quarter")

    @pytest.mark.parametrize("command, digest", [
        ("ols", "ae5e8d3ca2bd91b3901da03a4cc4fcf0"),
        ("ssp", "0b5b7853d0f0e0e0cea7294b757facdc"),
        ("cycles", "cc2f81043549d5848d9e2163023e300f"),
    ])
    def test_json_output_matches_committed_digest(self, canonical_csv, command, digest,
                                                  capsys):
        # blake2b-16 of the whole-series JSON; the analyze report has its own golden
        assert main([command, "--input", str(canonical_csv), "--json"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.blake2b(out, digest_size=16).hexdigest() == digest

    @pytest.mark.parametrize("command, digest", [
        ("rates", "c8e66503041c189f6cddd5b676655159"),
        ("gap", "089ade89463470aafc6ffa2881fe38de"),
        ("cycles", "ae5622e6eea88e13c972a27335a04ad2"),
    ])
    def test_csv_output_matches_committed_digest(self, canonical_csv, tmp_path, command,
                                                 digest, capsys):
        # blake2b-16 of the whole-series CSV: rates and gap on stdout, the cycles overlay file
        overlay = tmp_path / "overlay.csv"
        csv_flag = ["--csv", str(overlay)] if command == "cycles" else []
        assert main([command, "--input", str(canonical_csv), *csv_flag]) == 0
        out = capsys.readouterr().out
        text = overlay.read_text(encoding="utf-8") if command == "cycles" else out
        assert hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest() == digest

    @pytest.mark.parametrize("digits, digest", [
        ("15", "a0f64918496338e3e017ba842afd8741"),
        ("16", "875080727a3a4df5f19cf58ca59f129d"),
        ("17", "602e7dceb106dc9d4f88f26b0f499cd6"),
    ])
    def test_analyze_json_at_full_precision_matches_committed_digest(
            self, canonical_csv, digits, digest, monkeypatch, capsys):
        # the writer writes a fixed-notation float of at most 15 digits as
        # formatted and parses the rest; pins both sides of that limit
        monkeypatch.setenv("STEADYCREDIT_PRECISION", digits)
        assert main(["analyze", "--input", str(canonical_csv), "--json"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.blake2b(out, digest_size=16).hexdigest() == digest

    def test_gap_csv(self, canonical_csv, tmp_path):
        out = tmp_path / "gap.csv"
        assert main(["gap", "--input", str(canonical_csv), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "quarter,credit_to_gdp,trend,gap,buffer_add_on"
        assert len(lines) == 35

    def test_gap_without_gdp_fails_cleanly(self, tmp_path, capsys):
        series, _ = synth.generate(steady_scenario())
        path = tmp_path / "nogdp.csv"
        path.write_text(emit_csv(series), encoding="utf-8")
        assert main(["gap", "--input", str(path)]) == 1
        assert "gdp" in capsys.readouterr().err

    def test_gap_with_overflowing_ratio_fails_cleanly(self, tiny_gdp_csv, capsys):
        assert main(["gap", "--input", str(tiny_gdp_csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")

    def test_gap_with_a_smoothing_parameter_too_large_fails_cleanly(self, canonical_csv, capsys):
        assert main(["gap", "--input", str(canonical_csv), "--lambda", "1e30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: HP trend lost a linear moment of the series; "
                                "the smoothing parameter is too large for this series\n")

    @pytest.mark.parametrize("flag", ["--buffer-max=inf", "--gap-low=-inf", "--gap-high=inf",
                                      "--lambda=nan", "--lambda=inf"])
    def test_non_finite_gap_setting_rejected(self, canonical_csv, flag, capsys):
        assert main(["analyze", "--input", str(canonical_csv), flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "must be finite" in captured.err

    def test_non_finite_result_is_not_written(self, canonical_csv, monkeypatch, capsys):
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "1")
        _replace_cell(canonical_csv, 6, "tcu_eur", "1.7e308")
        assert main(["analyze", "--input", str(canonical_csv), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: result holds a non-finite number, which JSON "
                                "cannot represent: cycles.extrema[0].value\n")

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_failing_cycles_writes_no_overlay(self, tmp_path, to_stdout, monkeypatch, capsys):
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "1")
        path, overlay = tmp_path / "huge.csv", tmp_path / "overlay.csv"
        path.write_text(HUGE_CSV, encoding="utf-8")
        target = "-" if to_stdout else str(overlay)
        assert main(["cycles", "--input", str(path), "--csv", target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not overlay.exists()
        assert captured.err == ("error: result holds a non-finite number, which JSON "
                                "cannot represent: extrema[0].value\n")

    def test_cycles_of_a_credit_stock_near_the_float_limit(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(HUGE_CSV.replace("1.7e308", "1e308"), encoding="utf-8")
        assert main(["cycles", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert (report["series_mean"], report["series_se"]) == (3.33333e+307, 3.33333e+307)

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("csv_path, json_path", [
        ("same.out", "same.out"), ("same.out", "./same.out"), ("./same.out", "same.out")])
    @pytest.mark.parametrize("csv_first", [True, False])
    def test_two_outputs_on_one_file_are_a_usage_error(
            self, canonical_csv, tmp_path, monkeypatch, csv_path, json_path, csv_first,
            existing, capsys):
        monkeypatch.chdir(tmp_path)
        target = tmp_path / "same.out"
        if existing:
            target.write_bytes(b"kept\n")
        flags = [["--csv", csv_path], ["--json", json_path]]
        argv = ["cycles", "--input", str(canonical_csv), *flags[not csv_first],
                *flags[csv_first]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the overlay is opened first, whatever the flag order
        assert captured.err == (
            f"usage error: outputs {csv_path} and {json_path} are one file\n")
        if existing:
            assert target.read_bytes() == b"kept\n"
        assert sorted(os.listdir(tmp_path)) == ["canonical.csv", "same.out"][:1 + existing]

    @pytest.mark.parametrize("path", ["-", os.devnull])
    def test_two_outputs_on_one_stream_are_written_in_turn(self, canonical_csv, path, capsys):
        assert main(["cycles", "--input", str(canonical_csv), "--csv", path, "--json", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if path == "-":
            assert main(["cycles", "--input", str(canonical_csv)]) == 0
            report = capsys.readouterr().out
            assert captured.out.endswith(report) and captured.out.startswith("index,quarter,")
        else:
            assert captured.out == ""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_two_outputs_on_one_named_pipe_reach_its_reader_in_turn(self, canonical_csv,
                                                                    tmp_path, capsys):
        fifo = tmp_path / "cycles.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        try:
            proc = subprocess.run([sys.executable, "-m", "steadycredit.cli", "cycles",
                                   "--input", str(canonical_csv), "--csv", str(fifo),
                                   "--json", str(fifo)], capture_output=True, timeout=30)
        finally:
            if reader.is_alive():  # release a reader left waiting for a writer
                open(fifo, "wb").close()
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert main(["cycles", "--input", str(canonical_csv), "--csv", "-", "--json", "-"]) == 0
        assert got == [capsys.readouterr().out.encode("utf-8")]

    @pytest.mark.parametrize("command", ["rates", "ols", "ssp", "analyze"])
    def test_infinite_growth_rate_names_its_quarter(self, tmp_path, command, capsys):
        # loans of 1e300 on a credit stock of 1e-300 give f = inf at 2008-Q2
        path = tmp_path / "inf.csv"
        path.write_text(emit_csv(build_series([1e-300] * 5, loans=[0.0, 1e300, 0.0, 0.0, 0.0])))
        assert main([command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2008-Q2: f must be finite, got inf\n"
        # cycles reads the credit stock alone, so it runs its stage where the analysis cannot
        assert main(["cycles", "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["analyze", "ssp"])
    def test_huge_credit_stock_leaves_one_line_at_most(self, canonical_csv, command,
                                                       monkeypatch, capsys):
        # at one digit the credit stock's maximum rounds past the float range; only
        # analyze prints the cycle statistics
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "1")
        _replace_cell(canonical_csv, 6, "tcu_eur", "1.7e308")
        code = main([command, "--input", str(canonical_csv)])
        captured = capsys.readouterr()
        if command == "analyze":
            assert code == 1
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        else:
            assert code == 0 and captured.err == ""
            json.loads(captured.out)

    @pytest.mark.parametrize("sigma_ref", [[], ["--sigma-ref", "0.004"]])
    def test_ssp_prints_the_ssf_section_of_analyze(self, canonical_csv, sigma_ref, capsys):
        args = ["--input", str(canonical_csv), "--window", "crisis", *sigma_ref]
        assert main(["analyze", *args]) == 0
        ssf = json.loads(capsys.readouterr().out)["ssf"]
        assert main(["ssp", *args]) == 0
        assert capsys.readouterr().out == json.dumps(ssf, indent=2) + "\n"

    @pytest.mark.parametrize("window", [[], ["--window", "crisis"]])
    def test_cycles_prints_the_cycles_section_of_analyze(self, canonical_csv, window, capsys):
        args = ["--input", str(canonical_csv), *window]
        assert main(["analyze", *args]) == 0
        cycles = json.loads(capsys.readouterr().out)["cycles"]
        assert main(["cycles", *args]) == 0
        assert capsys.readouterr().out == json.dumps(cycles, indent=2) + "\n"

    def test_ssp_raises_least_squares_error_first(self, tmp_path, capsys):
        # an exact OLS fit leaves a zero reference scale under non-zero residuals
        path = tmp_path / "exact.csv"
        path.write_text(emit_csv(build_series([100.0] * 4, abd=[0.0, 0.0, 25.0, 50.0],
                                              loans=[None, 0.0, 18.75, 25.0])))
        assert main(["ssp", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reference residual scale is zero but residuals are not\n"

    @pytest.mark.parametrize("sigma_ref, message", [
        ("inf", "sigma_ref must be finite, got inf"),
        ("1e-300", "chi-squared statistic overflows the float range"),
    ])
    def test_unusable_reference_scale_is_a_stage_error(self, canonical_csv, sigma_ref,
                                                       message, capsys):
        args = ["--input", str(canonical_csv), "--sigma-ref", sigma_ref]
        assert main(["analyze", *args]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ssf"] == {"least_squares": None, "irr_root": None}
        assert [e for e in doc["errors"] if e["stage"].startswith("ssp")] == [
            {"stage": "ssp-least-squares", "message": message},
            {"stage": "ssp-irr-root", "message": message},
        ]
        assert main(["ssp", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_overflowing_residuals_are_not_blamed_on_the_default_scale(self, tmp_path,
                                                                       capsys):
        # loans of 1e308 on a credit stock of 1: the OLS sums overflow, and so
        # does every squared irr-root residual
        path = tmp_path / "overflow.csv"
        path.write_text(emit_csv(build_series([1.0] * 5, loans=[None, *[1e308] * 3, None])),
                        encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == [
            {"stage": "ols", "message": "sum overflows the float range"},
            {"stage": "ssp-least-squares", "message": "sum overflows the float range"},
            {"stage": "ssp-irr-root",
             "message": "residual sum of squares overflows the float range"},
            {"stage": "trajectory", "message": "no steady-state estimate available"},
        ]

    def test_non_finite_field_under_an_explicit_scale_is_a_stage_error(self, tmp_path,
                                                                       capsys):
        # the scale keeps chi-squared finite, but the irr-root sigma overflows
        path = tmp_path / "overflow.csv"
        path.write_text(emit_csv(build_series([1.0] * 5, loans=[None, *[1e308] * 3, None])),
                        encoding="utf-8")
        assert main(["analyze", "--input", str(path), "--sigma-ref", "1e300"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ssf"] == {"least_squares": None, "irr_root": None}
        assert doc["errors"] == [
            {"stage": "ols", "message": "sum overflows the float range"},
            {"stage": "ssp-least-squares", "message": "sum overflows the float range"},
            {"stage": "ssp-irr-root", "message": "sigma is not finite, got inf"},
            {"stage": "trajectory", "message": "no steady-state estimate available"},
        ]
        out = tmp_path / "panel.svg"
        assert main(["render", "--input", str(path), "--kind", "exhibit1",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: time panel rendering needs a trajectory\n"

    def test_overflowing_trajectory_is_a_stage_error(self, tmp_path, capsys):
        path = tmp_path / "overflow.csv"
        path.write_text(OVERFLOWING_INDEX_CSV, encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["errors"] == [
            {"stage": "trajectory", "message": "cumulative_index is not finite, got inf"}]
        assert doc["trajectory"] is None
        assert doc["ssf"]["least_squares"]["zeta"] == -1.0  # -0.9999999999999998 at 6 digits
        for kind, message in [("exhibit1", "time panel rendering needs a trajectory"),
                              ("exhibit2", "scatter rendering needs a trajectory")]:
            out = tmp_path / f"{kind}.svg"
            assert main(["render", "--input", str(path), "--kind", kind,
                         "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == f"error: {message}\n"

    def test_zeta_of_minus_one_is_a_stage_error(self, tmp_path, capsys):
        path = tmp_path / "unit_zeta.csv"
        path.write_text(UNIT_ZETA_CSV, encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        message = "zeta is -1, so s = 1 / (1 + zeta) is undefined"
        assert json.loads(captured.out)["errors"] == [
            {"stage": "ssp-least-squares", "message": message},
            {"stage": "ssp-irr-root",
             "message": "discount-factor root is above s=10.0, so zeta is below -0.9"},
            {"stage": "trajectory", "message": "no steady-state estimate available"},
        ]
        assert main(["ssp", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_non_finite_ols_scale_is_not_blamed_on_the_reference_scale(self, tmp_path,
                                                                       capsys):
        path = tmp_path / "ols_scale.csv"
        path.write_text(OLS_SCALE_OVERFLOW_CSV, encoding="utf-8")
        assert main(["ssp", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        ssf = json.loads(captured.out)
        for est in ssf.values():
            assert (est["zeta"], est["chi2"], est["dof"], est["p_value"]) == (1e150, 0.0, 3, 1.0)
        assert main(["analyze", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["errors"] == [
            {"stage": "ols", "message": "sigma_intercept is not finite, got inf"}]
        assert doc["ssf"] == ssf and len(doc["trajectory"]) == 4
        # ols fails on its own stage's error, the one analyze records
        assert main(["ols", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: sigma_intercept is not finite, got inf\n")

    def test_analyze_records_gap_stage_error(self, tiny_gdp_csv, capsys):
        assert main(["analyze", "--input", str(tiny_gdp_csv), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap"] is None
        assert [e["stage"] for e in doc["errors"]] == ["gap"]

    def test_analyze_records_a_smoothing_parameter_too_large_as_gap_stage_error(
            self, canonical_csv, capsys):
        assert main(["analyze", "--input", str(canonical_csv), "--lambda", "1e30"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["gap"] is None
        assert [e["stage"] for e in doc["errors"]] == ["gap"]

    def test_render_scatter(self, canonical_csv, tmp_path):
        out = tmp_path / "chart.svg"
        assert main(["render", "--input", str(canonical_csv), "--window", "crisis",
                     "--kind", "exhibit2", "--out", str(out)]) == 0
        # the golden has the hollow markers of the points outside the window
        assert out.read_bytes() == (GOLDEN_DIR / "canonical_exhibit2.svg").read_bytes()

    def test_render_time_panel(self, canonical_csv, tmp_path):
        out = tmp_path / "panel.svg"
        assert main(["render", "--input", str(canonical_csv), "--window", "crisis",
                     "--kind", "exhibit1", "--out", str(out)]) == 0
        ET.fromstring(out.read_text())
        digest = hashlib.blake2b(out.read_bytes(), digest_size=16).hexdigest()
        assert digest == "6fbb0257c1c5b1454dee5951e602aedd"

    @pytest.mark.parametrize("kind", ["exhibit1", "exhibit2"])
    def test_render_computes_rates_outside_the_window_for_the_scatter_only(
            self, tmp_path, kind, capsys):
        # tcu 1e-300 after 1e300 underflows f to -1.0 at 2008-Q2, before the window;
        # only the scatter draws that point, as a hollow marker, so only it fails
        series = build_series([1e300, 1e-300] + [1e-300 * 1.01**i for i in range(1, 12)])
        path = tmp_path / "underflow.csv"
        path.write_text(emit_csv(series), encoding="utf-8")
        code = main(["render", "--input", str(path), "--from", "2008-Q4", "--to", "2011-Q1",
                     "--kind", kind])
        captured = capsys.readouterr()
        if kind == "exhibit1":
            window = Window(Quarter(2008, 4), Quarter(2011, 1))
            assert (code, captured.err) == (0, "")
            assert captured.out == render_svg(analyze(series, window), kind)
        else:
            assert (code, captured.out) == (1, "")
            assert captured.err == "error: 2008-Q2: f must be > -1, got -1.0\n"

    @pytest.mark.parametrize("bad", ["--json", "--csv"])
    def test_cycles_writes_neither_output_when_one_cannot_be_opened(self, canonical_csv,
                                                                    tmp_path, bad, capsys):
        paths = {"--json": tmp_path / "c.json", "--csv": tmp_path / "ov.csv"}
        missing = tmp_path / "no" / "such" / "dir" / "out"
        args = {flag: str(missing if flag == bad else path) for flag, path in paths.items()}
        # the overlay is opened first, so a bad --json path fails after it is created
        assert main(["cycles", "--input", str(canonical_csv), "--csv", args["--csv"],
                     "--json", args["--json"]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_a_named_pipe_reaches_its_reader_whole(self, canonical_csv, tmp_path,
                                                             capsys):
        # a reader stops at the first close of the pipe's writers, so the file
        # opened before writing must stay open until the text is written
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        try:
            proc = subprocess.run([sys.executable, "-m", "steadycredit.cli", "analyze",
                                   "--input", str(canonical_csv), "--json", str(fifo)],
                                  capture_output=True, timeout=30)
        finally:
            if reader.is_alive():  # release a reader left waiting for a writer
                open(fifo, "wb").close()
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert main(["analyze", "--input", str(canonical_csv)]) == 0
        assert got == [capsys.readouterr().out.encode("utf-8")]

    def test_cycles_keeps_an_existing_file_when_another_cannot_be_opened(
            self, canonical_csv, tmp_path):
        overlay = tmp_path / "ov.csv"
        overlay.write_text("kept\n", encoding="utf-8")
        assert main(["cycles", "--input", str(canonical_csv), "--csv", str(overlay),
                     "--json", str(tmp_path / "no" / "c.json")]) == 1
        assert overlay.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symbolic links")
    @pytest.mark.parametrize("existing", [None, "kept\n"], ids=["dangling", "existing"])
    def test_failing_command_through_a_symlink_removes_only_the_target_it_created(
            self, canonical_csv, tmp_path, existing, capsys):
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to("target.csv")
        if existing is not None:
            target.write_text(existing, encoding="utf-8")
        missing = tmp_path / "no" / "such" / "dir" / "c.json"
        assert main(["cycles", "--input", str(canonical_csv), "--csv", str(link),
                     "--json", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert link.is_symlink() and os.readlink(link) == "target.csv"
        if existing is None:
            assert not os.path.lexists(target)
        else:
            assert target.read_text(encoding="utf-8") == existing


@pytest.mark.parametrize("window, message", [
    pytest.param(["--window", "pre2008"],
                 "slice 1996-Q1..2008-Q2 outside series span 2005-Q1..2013-Q2", id="pre2008"),
    pytest.param(["--from", "2008-Q2", "--to", "2008-Q3", "--no-inclusive-to"],
                 "slice [2008-Q2..2008-Q3) selects a single observation; need at least 2",
                 id="one-quarter"),
])
@pytest.mark.parametrize("command", ["rates", "ols", "ssp", "cycles", "gap", "analyze", "render"])
def test_every_windowed_command_refuses_the_same_windows(canonical_csv, command, window,
                                                         message, capsys):
    kind = ["--kind", "exhibit2"] if command == "render" else []
    assert main([command, "--input", str(canonical_csv), *window, *kind]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["rates", "ols", "ssp", "cycles", "gap", "analyze", "render"])
def test_every_windowed_command_cuts_the_series_once(canonical_csv, command, capsys):
    cuts = []
    cut = CreditSeries.slice

    def spy(series, window):
        cuts.append(window)
        return cut(series, window)

    extra = {"cycles": ["--csv", "-"], "render": ["--kind", "exhibit2"]}.get(command, [])
    with mock.patch.object(CreditSeries, "slice", spy):
        assert main([command, "--input", str(canonical_csv), "--window", "crisis", *extra]) == 0
    assert cuts == [Window(Quarter(2008, 2), Quarter(2012, 2))]
    assert capsys.readouterr().err == ""


# (option strings, dest, default, required, choices, nargs, const, type) per flag
_INPUT = [(("--input",), "input", None, True, None, None, None, None)]
_WINDOW = [
    (("--window",), "named_window", None, False, ["crisis", "pre2008"], None, None, None),
    (("--from",), "from_q", None, False, None, None, None, None),
    (("--to",), "to_q", None, False, None, None, None, None),
    (("--inclusive-from", "--no-inclusive-from"), "from_inclusive", None, False, None, 0, None, None),
    (("--inclusive-to", "--no-inclusive-to"), "to_inclusive", None, False, None, 0, None, None),
]
_F_MODE = [(("--f-mode",), "f_mode", "prefer-loans", False,
            ["prefer-loans", "force-balance-identity"], None, None, None)]
_SIGMA_REF = [(("--sigma-ref",), "sigma_ref", None, False, None, None, None, float)]
_GAP = [
    (("--lambda",), "lam", 400000.0, False, None, None, None, float),
    (("--gap-low",), "gap_low", 2.0, False, None, None, None, float),
    (("--gap-high",), "gap_high", 10.0, False, None, None, None, float),
    (("--buffer-max",), "buffer_max", 0.025, False, None, None, None, float),
]
_JSON = [(("--json",), "json_path", "-", False, None, "?", "-", None)]
_OUT = [(("--out",), "out", "-", False, None, None, None, None)]
FLAG_TABLE = {
    "validate": _INPUT,
    "rates": _INPUT + _WINDOW + _F_MODE + _OUT,
    "ols": _INPUT + _WINDOW + _F_MODE + _JSON,
    "ssp": _INPUT + _WINDOW + _F_MODE + _SIGMA_REF + _JSON,
    "cycles": _INPUT + _WINDOW + [(("--csv",), "csv", None, False, None, None, None, None)] + _JSON,
    "gap": _INPUT + _WINDOW + _GAP + _OUT,
    "analyze": _INPUT + _WINDOW + _F_MODE + _SIGMA_REF + _GAP + _JSON,
    "simulate": [
        (("--scenario",), "scenario", None, True, None, None, None, None),
        (("--seed",), "seed", None, True, None, None, None, int),
    ] + _OUT,
    "render": _INPUT + _WINDOW + _F_MODE + _SIGMA_REF
    + [(("--kind",), "kind", None, True, ["exhibit1", "exhibit2"], None, None, None)] + _OUT,
}


def test_every_command_keeps_its_flags():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    table = {
        name: [(tuple(a.option_strings), a.dest, a.default, a.required, a.choices,
                a.nargs, a.const, a.type) for a in parser._actions[1:]]
        for name, parser in subparsers.items()
    }
    assert table == FLAG_TABLE


# per command, the arguments that follow --input (--scenario for simulate)
IMPORT_GRAPH_ARGS = {
    "analyze": ["--window", "crisis"],
    "ssp": ["--window", "crisis"],
    "render": ["--window", "crisis", "--kind", "exhibit2"],
    "gap": [],
    "cycles": [],
    "ols": [],
    "rates": [],
    "validate": [],
    "simulate": ["--seed", "7"],
}


class TestInstalledEntryPoint:
    def test_help_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "steadycredit.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "analyze" in proc.stdout

    @pytest.mark.parametrize("command", list(IMPORT_GRAPH_ARGS))
    def test_no_command_imports_numpy(self, command, canonical_csv, tmp_path):
        args = IMPORT_GRAPH_ARGS[command]
        if command == "simulate":
            scenario = tmp_path / "noisy.cfg"
            scenario.write_text(scenario_to_text(steady_scenario(noise_sigma=0.004)),
                                encoding="utf-8")
            args = ["--scenario", str(scenario), *args]
        else:
            args = ["--input", str(canonical_csv), *args]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "steadycredit.cli", command, *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                   if line.startswith("import time:")]
        tops = {m.split(".")[0] for m in modules}
        assert "scipy" not in tops
        assert "numpy" not in tops
        if command == "simulate":
            # the seeded PCG64 noise stream defines the scenario; the digest pins its bytes
            digest = hashlib.blake2b(proc.stdout.encode("utf-8"), digest_size=16).hexdigest()
            assert digest == "fbc9aa0fe22777f08682a09e2afe317e"
        if command == "analyze":
            assert "steadycredit.basel" in modules
            assert json.loads(proc.stdout)["gap"] is not None
        # only render draws, and only render_svg imports the drawing code
        assert ("steadycredit.svg" in modules) == (command == "render")
        # only simulate imports the simulator, and the writer quotes without json
        assert ("steadycredit.synth" in modules) == (command == "simulate")
        assert "json" not in tops
        # only a sample that is not all finite floats needs numbers.Number
        assert "numbers" not in tops

    @pytest.mark.parametrize("argv, code", [
        (["validate", "--input", "{csv}"], 0),
        (["gap", "--input", "{csv}", "--lambda", "1e30"], 1),
        (["rates", "--input"], 2),
    ], ids=["ok", "data-error", "usage-error"])
    def test_entrypoint_freezes_the_collector_once_main_returns(self, canonical_csv, argv, code,
                                                                capsys):
        argv = [arg.format(csv=canonical_csv) for arg in argv]
        child = ("import atexit, gc, sys\n"
                 "from steadycredit import cli\n"
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
                 "cli.entrypoint()\n")
        proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True)
        assert main(argv) == code
        expected = capsys.readouterr()
        err, _, frozen = proc.stderr.rpartition("frozen ")
        # the atexit handler ran, after a freeze that covers the objects alive then
        assert int(frozen) > 0
        assert (proc.returncode, proc.stdout, err) == (code, expected.out, expected.err)

    def test_main_leaves_the_collector_as_it_was(self, canonical_csv, capsys):
        frozen = gc.get_freeze_count()
        assert main(["analyze", "--input", str(canonical_csv)]) == 0
        assert gc.get_freeze_count() == frozen


_ODD_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["0.0", "5e-324", "2.2250738585072014e-308", "1e-300", "1e300", "1e308",
                     "1.7976931348623157e308", "-1.0", "inf", "nan", "", "x"]),
)


@st.composite
def _register_csv(draw) -> str:
    """Contiguous quarters of plausible amounts with a few odd cells swapped in."""
    start = Quarter(draw(st.integers(2005, 2009)), draw(st.integers(1, 4)))
    n = draw(st.integers(0, 40))
    with_loans, with_gdp = draw(st.booleans()), draw(st.booleans())
    rows = [[str(start.shift(i)),
             repr(draw(st.floats(5e11, 1e12))),
             repr(draw(st.floats(0.0, 5e9))),
             repr(draw(st.floats(0.0, 5e10))) if with_loans else "",
             repr(draw(st.floats(1e11, 5e11))) if with_gdp else ""]
            for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(1, 4))] = draw(_ODD_CELLS)
    return "\n".join(",".join(row) for row in [list(CSV_HEADER), *rows]) + "\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=st.one_of(st.text(max_size=200), _register_csv()),
    flags=st.sampled_from([[], ["--window", "crisis"], ["--f-mode", "force-balance-identity"],
                           ["--sigma-ref", "1e-300"], ["--lambda", "1e300"]]),
)
@example(text=HP_OVERFLOW_CSV, flags=[])
def test_analyze_contract_holds_for_any_csv(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["analyze", "--input", str(path), *flags])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=lambda token: pytest.fail(f"{token} in JSON"))


# the arguments each windowed command needs besides --input
WINDOWED_ARGS = {
    "rates": [], "ols": [], "ssp": [], "cycles": ["--csv", "-"], "gap": [], "analyze": [],
    "render": ["--kind", "exhibit2"],
}
_CONTRACT_FLAGS = [[], ["--window", "crisis"], ["--f-mode", "force-balance-identity"],
                   ["--sigma-ref", "1e-300"], ["--lambda", "1e300"]]


@st.composite
def _windowed_command(draw) -> list[str]:
    """A windowed command with its own arguments and at most one flag it accepts."""
    command = draw(st.sampled_from(sorted(WINDOWED_ARGS)))
    accepted = {name for flag in FLAG_TABLE[command] for name in flag[0]}
    flags = draw(st.sampled_from([f for f in _CONTRACT_FLAGS if not f or f[0] in accepted]))
    return [command, *WINDOWED_ARGS[command], *flags]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(st.text(max_size=200), _register_csv()), argv=_windowed_command())
@example(text=HUGE_CSV, argv=["cycles", "--csv", "-"])
def test_every_windowed_command_keeps_the_contract_for_any_csv(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([argv[0], "--input", str(path), *argv[1:]])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
