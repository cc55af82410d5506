import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import build_series, canonical_series, steady_scenario
from steadycredit import ols, synth
from steadycredit.errors import SteadyCreditError
from steadycredit.report import (
    KIND_SCATTER,
    KIND_TIME_PANEL,
    analyze,
    dump_json,
    render_svg,
    resolve_precision,
    round_sig,
    to_json,
    to_json_dict,
)
from steadycredit.series import Quarter, Window

GOLDEN_DIR = Path(__file__).parent / "golden"

CRISIS = Window(Quarter(2008, 2), Quarter(2012, 2), True, True)
ALL_WINDOWS_DIGEST = "ce5dcb8e0bc9fb659e76e95865fc4475"


def canonical_report():
    return analyze(canonical_series(), CRISIS)


class TestAnalyze:
    def test_noiseless_steady_state_report(self):
        scenario = steady_scenario(n_quarters=34, start=Quarter(2005, 1), seed=6)
        series, _ = synth.generate(scenario)
        report = analyze(series, CRISIS)
        assert report.errors == ()
        assert report.n == 17
        # growth is increasing in the default rate when the offset is fixed,
        # so the regression correlation sits near +1
        assert report.ols_fit.r > 0.99
        assert report.ols_fit.r2 == pytest.approx(report.ols_fit.r**2, abs=1e-12)
        assert report.ssp_ls.zeta == pytest.approx(0.00245, abs=1e-12)
        assert report.ssp_irr.zeta == pytest.approx(0.00245, abs=1e-10)
        assert report.cycles is not None
        for p in report.trajectory.points:
            assert p.cumulative_index == pytest.approx(1.0, abs=1e-9)

    def test_window_defaults_to_full_span(self):
        series, _ = synth.generate(steady_scenario())
        report = analyze(series)
        assert report.n == len(series) - 1
        assert report.rates_out == ()

    def test_two_interval_window_reports_ols_error(self):
        series, _ = synth.generate(steady_scenario(n_quarters=20))
        window = Window(Quarter(2008, 3), Quarter(2008, 4), True, True)
        report = analyze(series, window)
        assert report.n == 2
        assert report.ols_fit is None
        stages = {stage for stage, _ in report.errors}
        assert "ols" in stages
        assert report.ssp_ls is not None  # still computed on two points

    def test_gap_present_only_with_gdp(self):
        with_gdp = analyze(canonical_series(), CRISIS)
        assert with_gdp.gap is not None
        series, _ = synth.generate(steady_scenario(n_quarters=34, start=Quarter(2005, 1)))
        without = analyze(series, CRISIS)
        assert without.gap is None
        assert "gap" not in {stage for stage, _ in without.errors}

    def test_ols_is_fit_once_per_analysis(self, monkeypatch):
        calls = []
        fit = ols.fit

        def counted(x, y):
            calls.append(len(x))
            return fit(x, y)

        monkeypatch.setattr(ols, "fit", counted)
        report = analyze(canonical_series(), CRISIS)
        assert calls == [17]
        assert report.errors == ()

    def test_zero_ols_scale_is_left_to_the_estimators(self):
        # d = f = (0, 0.25, 0.5): the OLS line fits exactly, so its residual
        # scale is 0.0 while the steady-state residuals are not zero
        series = build_series([100.0] * 4, abd=[0.0, 0.0, 25.0, 50.0],
                              loans=[None, 0.0, 18.75, 25.0])
        report = analyze(series)
        assert report.ols_fit.s_resid == 0.0
        message = "reference residual scale is zero but residuals are not"
        assert report.errors[:2] == (
            ("ssp-least-squares", message),
            ("ssp-irr-root", message),
        )

    def test_lookback_interval_counted(self):
        report = canonical_report()
        assert report.n == 17
        assert report.rates_in.points[0].interval_end == Quarter(2008, 2)

    def test_canonical_two_window_partition(self):
        # 67 quarters from 1995-Q4 give exactly 66 intervals, split 49 + 17
        # by the [1996-Q1, 2008-Q2) and [2008-Q2, 2012-Q2] windows
        scenario = steady_scenario(
            n_quarters=67, start=Quarter(1995, 4), noise_sigma=0.003, seed=1
        )
        series, _ = synth.generate(scenario)
        early = analyze(series, Window(Quarter(1996, 1), Quarter(2008, 2), True, False))
        late = analyze(series, Window(Quarter(2008, 2), Quarter(2012, 2), True, True))
        assert early.n == 49 and early.ssp_ls.dof == 48
        assert late.n == 17 and late.ssp_ls.dof == 16
        covered = {p.interval_end for p in early.rates_in.points} | {
            p.interval_end for p in late.rates_in.points
        }
        assert len(covered) == 66


class TestJson:
    def test_document_shape(self):
        doc = to_json_dict(canonical_report())
        assert doc["schema"] == "steadycredit-analysis/1"
        assert doc["window"] == {
            "from": "2008-Q2", "to": "2012-Q2",
            "from_inclusive": True, "to_inclusive": True,
        }
        assert doc["n"] == 17
        assert doc["ols"]["n"] == 17
        assert set(doc["ssf"]) == {"least_squares", "irr_root"}
        assert doc["ssf"]["least_squares"]["dof"] == 16
        assert doc["gap"]["rows"][0]["quarter"] == "2008-Q2"
        assert doc["errors"] == []

    def test_round_trips_through_parser(self):
        text = to_json(canonical_report())
        assert json.loads(text)["n"] == 17

    def test_byte_stable_across_runs(self):
        assert to_json(canonical_report()) == to_json(canonical_report())

    def test_matches_committed_golden(self):
        golden = (GOLDEN_DIR / "canonical_report.json").read_text()
        assert to_json(canonical_report()) == golden

    def test_every_window_matches_committed_digest(self):
        # blake2b-16 over the reports of all 378 windows of >= 8 quarters of the
        # canonical series, in sorted order; pins far more output than the golden
        series = canonical_series()
        quarters = series.quarters()
        h = hashlib.blake2b(digest_size=16)
        for i, start in enumerate(quarters):
            for end in quarters[i + 7:]:
                h.update(to_json(analyze(series, Window(start, end))).encode("utf-8"))
        assert h.hexdigest() == ALL_WINDOWS_DIGEST

    def test_precision_rounding(self):
        report = canonical_report()
        full = to_json_dict(report, precision=12)
        coarse = to_json_dict(report, precision=3)
        assert coarse["ols"]["sigma"] == round_sig(full["ols"]["sigma"], 3)

    def test_precision_env_var(self, monkeypatch):
        report = canonical_report()
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "3")
        assert to_json(report) == to_json(report, precision=3)
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "zero")
        with pytest.raises(SteadyCreditError):
            resolve_precision()

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_is_rejected(self, value):
        with pytest.raises(SteadyCreditError, match="non-finite"):
            dump_json({"chi2": value})


class TestSvg:
    def test_scatter_is_well_formed_svg(self):
        text = render_svg(canonical_report(), KIND_SCATTER)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"

    def test_scatter_marker_counts(self):
        report = canonical_report()
        text = render_svg(report, KIND_SCATTER)
        assert text.count('class="obs-in"') == report.n
        assert text.count('class="obs-out"') == len(report.rates_out)
        assert text.count('class="ssf"') == 1
        assert (
            text.count('class="rising"')
            + text.count('class="falling"')
            + text.count('class="flat"')
            == report.n - 1
        )

    def test_no_hollow_markers_without_out_of_window_points(self):
        series, _ = synth.generate(steady_scenario())
        report = analyze(series)
        assert 'class="obs-out"' not in render_svg(report, KIND_SCATTER)

    def test_time_panel_has_three_series(self):
        text = render_svg(canonical_report(), KIND_TIME_PANEL)
        ET.fromstring(text)
        for cls in ("observed-f", "default-d", "expected-f"):
            assert f'polyline class="{cls}"' in text

    def test_byte_stable_across_runs(self):
        assert render_svg(canonical_report(), KIND_SCATTER) == render_svg(
            canonical_report(), KIND_SCATTER
        )

    def test_matches_committed_golden(self):
        golden = (GOLDEN_DIR / "canonical_exhibit2.svg").read_text()
        assert render_svg(canonical_report(), KIND_SCATTER) == golden

    def test_unknown_kind_rejected(self):
        with pytest.raises(SteadyCreditError):
            render_svg(canonical_report(), "exhibit3")
