import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_series, canonical_series, steady_scenario
from steadycredit import synth
from steadycredit.cli import build_parser, main
from steadycredit.series import CSV_HEADER, CreditSeries, Quarter, emit_csv

GAPPED_CSV = (
    "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
    "2008-Q2,910e9,3.6e9,,\n"
    "2009-Q1,915e9,3.8e9,,\n"
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
    path.write_text(synth.scenario_to_text(steady_scenario()), encoding="utf-8")
    return path


class TestValidate:
    def test_valid_file(self, canonical_csv, capsys):
        assert main(["validate", "--input", str(canonical_csv)]) == 0
        assert capsys.readouterr().out.startswith("OK: 34 observations")

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
            synth.scenario_to_text(steady_scenario(noise_sigma=0.004)), encoding="utf-8"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--scenario", str(noisy), "--seed", "1", "--out", str(a)]) == 0
        assert main(["simulate", "--scenario", str(noisy), "--seed", "2", "--out", str(b)]) == 0
        assert a.read_text() != b.read_text()


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

    def test_precision_env_var(self, canonical_csv, tmp_path, monkeypatch, capsys):
        out_default = tmp_path / "p6.json"
        assert main(["analyze", "--input", str(canonical_csv), "--window", "crisis",
                     "--json", str(out_default)]) == 0
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "2")
        out_coarse = tmp_path / "p2.json"
        assert main(["analyze", "--input", str(canonical_csv), "--window", "crisis",
                     "--json", str(out_coarse)]) == 0
        assert out_default.read_text() != out_coarse.read_text()


class TestOtherCommands:
    def test_rates_csv(self, canonical_csv, capsys):
        assert main(["rates", "--input", str(canonical_csv), "--window", "crisis"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "interval_end,d,f,f_source"
        assert len(lines) == 18

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

    @pytest.mark.parametrize("flag", ["--buffer-max=inf", "--gap-low=-inf", "--gap-high=inf"])
    def test_non_finite_gap_setting_rejected(self, canonical_csv, flag, capsys):
        assert main(["analyze", "--input", str(canonical_csv), flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "must be finite" in captured.err

    def test_non_finite_result_is_not_written(self, canonical_csv, capsys):
        _replace_cell(canonical_csv, 6, "tcu_eur", "1e308")
        assert main(["analyze", "--input", str(canonical_csv), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["analyze", "ssp"])
    def test_huge_credit_stock_leaves_one_line_at_most(self, canonical_csv, command, capsys):
        # the cycle statistics of this series overflow to inf; only analyze prints them
        _replace_cell(canonical_csv, 6, "tcu_eur", "1e308")
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

    def test_ssp_raises_least_squares_error_first(self, tmp_path, capsys):
        # an exact OLS fit leaves a zero reference scale under non-zero residuals
        path = tmp_path / "exact.csv"
        path.write_text(emit_csv(build_series([100.0] * 4, abd=[0.0, 0.0, 25.0, 50.0],
                                              loans=[None, 0.0, 18.75, 25.0])))
        assert main(["ssp", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: reference residual scale is zero but residuals are not\n"

    def test_analyze_records_gap_stage_error(self, tiny_gdp_csv, capsys):
        assert main(["analyze", "--input", str(tiny_gdp_csv), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gap"] is None
        assert [e["stage"] for e in doc["errors"]] == ["gap"]

    def test_render_scatter(self, canonical_csv, tmp_path):
        out = tmp_path / "chart.svg"
        assert main(["render", "--input", str(canonical_csv), "--window", "crisis",
                     "--kind", "exhibit2", "--out", str(out)]) == 0
        ET.fromstring(out.read_text())

    def test_render_time_panel(self, canonical_csv, tmp_path):
        out = tmp_path / "panel.svg"
        assert main(["render", "--input", str(canonical_csv), "--window", "crisis",
                     "--kind", "exhibit1", "--out", str(out)]) == 0
        ET.fromstring(out.read_text())


# (option strings, dest, default, required, choices, nargs, const, type) per flag
_INPUT = [(("--input",), "input", None, True, None, None, None, None)]
_WINDOW = [
    (("--window",), "named_window", None, False, ["crisis", "pre2008"], None, None, None),
    (("--from",), "from_q", None, False, None, None, None, None),
    (("--to",), "to_q", None, False, None, None, None, None),
    (("--inclusive-from", "--no-inclusive-from"), "from_inclusive", True, False, None, 0, None, None),
    (("--inclusive-to", "--no-inclusive-to"), "to_inclusive", True, False, None, 0, None, None),
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
    def test_numpy_loads_only_for_simulate(self, command, canonical_csv, tmp_path):
        args = IMPORT_GRAPH_ARGS[command]
        if command == "simulate":
            scenario = tmp_path / "noisy.cfg"
            scenario.write_text(synth.scenario_to_text(steady_scenario(noise_sigma=0.004)),
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
        if command == "simulate":
            # the seeded PCG64 noise stream defines the scenario; the digest pins its bytes
            assert "numpy" in tops
            digest = hashlib.blake2b(proc.stdout.encode("utf-8"), digest_size=16).hexdigest()
            assert digest == "fbc9aa0fe22777f08682a09e2afe317e"
        else:
            assert "numpy" not in tops
        if command == "analyze":
            assert "steadycredit.basel" in modules
            assert json.loads(proc.stdout)["gap"] is not None


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
