import contextlib
import hashlib
import json
import math
import os
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import round_sig, rounded_json_dumps, window_filter_oracle
from conftest import build_series, canonical_series, steady_scenario
from steadycredit import ols, synth
from steadycredit.basel import GapRow
from steadycredit.cli import main
from steadycredit.cycles import Extremum
from steadycredit.errors import InvariantError, SteadyCreditError, WindowError
from steadycredit.rates import RateSeries, credit_growth_rates, outside_window, select_window
from steadycredit.report import (
    KIND_SCATTER,
    KIND_TIME_PANEL,
    analyze,
    dump_json,
    render_svg,
    resolve_precision,
    to_json,
    to_json_dict,
)
from steadycredit.series import CreditObservation, CreditSeries, Quarter, Window, emit_csv

GOLDEN_DIR = Path(__file__).parent / "golden"

CRISIS = Window(Quarter(2008, 2), Quarter(2012, 2), True, True)
ALL_WINDOWS_DIGEST = "ce5dcb8e0bc9fb659e76e95865fc4475"

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                     float("inf"), float("-inf"), float("nan")]),
)
_QUARTERS = st.builds(Quarter, st.integers(1000, 9999), st.integers(1, 4))


class _Pair(NamedTuple):
    key: object
    value: object


class _Row(NamedTuple):
    quarter: object
    level: object
    trend: object
    label: object
    count: object
    add_on: object


# what one field of a record list holds: one type per field, as in a result
# record, or a mix, or nested values
_FIELD_KINDS = (
    _FLOATS,
    st.sampled_from([0.0, -0.0, 0.0125, 1.5, 100.0, 400000.0, 1e14, 1e15, 1e16, 1e22]),
    st.integers(-2**60, 2**60).map(float),  # integral
    st.tuples(st.sampled_from([1.0, -1.5, 2.5, 9.99995]), st.integers(-323, 308)).map(
        lambda t: t[0] * 10.0**t[1]),  # exponent notation, subnormal and overflowing
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(st.characters(exclude_categories=()), max_size=4),
    _QUARTERS,
    _FLOATS.map(np.float64),
    st.one_of(st.none(), st.sampled_from(["rising", "falling", "flat"])),
    st.one_of(st.none(), _QUARTERS),
    st.one_of(st.integers(), _FLOATS),
)


@st.composite
def _records(draw, children):
    """One record, or a list or tuple of 1-6 records of one class."""
    kind = draw(st.sampled_from([_Pair, _Row]))
    fields = [draw(st.sampled_from([*_FIELD_KINDS, children])) for _ in kind._fields]
    rows = [kind(*(draw(field) for field in fields)) for _ in range(draw(st.integers(1, 6)))]
    shape = draw(st.sampled_from(["one", "list", "tuple"]))
    return rows[0] if shape == "one" else list(rows) if shape == "list" else tuple(rows)


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.text(st.characters(exclude_categories=())), _FLOATS, _QUARTERS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        _records(children),
    ),
    max_leaves=24,
)


def canonical_report():
    return analyze(canonical_series(), CRISIS)


def all_windows_digest(start_inclusive: bool, end_inclusive: bool) -> str:
    """blake2b-16 over the reports of all 378 windows of >= 8 quarters of the
    canonical series, in sorted order, with the given inclusion flags."""
    series = canonical_series()
    quarters = series.quarters()
    h = hashlib.blake2b(digest_size=16)
    for i, start in enumerate(quarters):
        for end in quarters[i + 7:]:
            window = Window(start, end, start_inclusive, end_inclusive)
            h.update(to_json(analyze(series, window)).encode("utf-8"))
    return h.hexdigest()


class TestAnalyze:
    def test_noiseless_steady_state_report(self):
        scenario = steady_scenario(n_quarters=34, start=Quarter(2005, 1), seed=6)
        series, _ = synth.generate(scenario)
        report = analyze(series, CRISIS)
        assert report.errors == ()
        assert report.n == 17
        # growth is increasing in the default rate when the offset is fixed,
        # so the regression correlation sits near +1
        assert report.ols_fit.correlation > 0.99
        assert report.ols_fit.r2 == pytest.approx(report.ols_fit.correlation**2, abs=1e-12)
        assert report.ssp_ls.zeta == pytest.approx(0.00245, abs=1e-12)
        assert report.ssp_irr.zeta == pytest.approx(0.00245, abs=1e-10)
        assert report.cycles is not None
        for p in report.trajectory:
            assert p.cumulative_index == pytest.approx(1.0, abs=1e-9)

    def test_window_defaults_to_full_span(self):
        series, _ = synth.generate(steady_scenario())
        report = analyze(series)
        assert report.n == len(series) - 1
        assert outside_window(series, report.window) == ()

    def test_bad_rate_point_outside_the_window_is_not_computed(self):
        # tcu 1e-300 after 1e300 underflows f to -1.0 at 2008-Q2, which no
        # RatePoint accepts; a window after it never computes that point
        series = build_series([1e300, 1e-300] + [1e-300 * 1.01**i for i in range(1, 12)])
        window = Window(Quarter(2008, 4), series.last_quarter)
        report = analyze(series, window)
        assert report.n == 10
        with pytest.raises(InvariantError, match="2008-Q2: f must be > -1, got -1.0"):
            outside_window(series, window)
        with pytest.raises(InvariantError, match="2008-Q2: f must be > -1, got -1.0"):
            analyze(series)

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

    def test_partial_gdp_column_is_a_gap_stage_error(self):
        obs = list(canonical_series().observations)
        o = obs[20]  # 2010-Q1, inside the crisis window
        obs[20] = CreditObservation(o.quarter, o.tcu, o.abd, o.loans, None)
        series = CreditSeries(tuple(obs))
        report = analyze(series, CRISIS)
        assert report.gap is None
        assert [(stage, message) for stage, message in report.errors if stage == "gap"] == [
            ("gap", "gdp column absent at 2010-Q1")]
        inside = analyze(series, Window(Quarter(2005, 1), Quarter(2009, 4)))
        assert inside.gap is not None and len(inside.gap.rows) == 20
        assert "gap" not in {stage for stage, _ in inside.errors}

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
        assert report.ols_fit.s_for_residual == 0.0
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
        doc = json.loads(to_json(canonical_report()))
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
        # pins far more output than the golden
        assert all_windows_digest(True, True) == ALL_WINDOWS_DIGEST

    @pytest.mark.parametrize("digits, digest", [
        ("15", "90f8708ecb7ce7c6d83f89cef935494e"),
        ("17", "ce30969eaef0442c72a82b045062d5ff"),
    ])
    def test_every_window_matches_committed_digest_at_full_precision(self, digits, digest,
                                                                     monkeypatch):
        # 15 digits is the last precision that writes a fixed-notation text as formatted
        monkeypatch.setenv("STEADYCREDIT_PRECISION", digits)
        assert all_windows_digest(True, True) == digest

    @pytest.mark.parametrize("start_inclusive, end_inclusive, digest", [
        (True, False, "0672ba222709b774ebd967e8b94ccf66"),
        (False, True, "9ccec66483622912a7e0c2358c80d9ad"),
        (False, False, "fba5c9d2f4d1325b1e174799bb51873a"),
    ])
    def test_every_open_window_matches_committed_digest(self, start_inclusive, end_inclusive,
                                                        digest):
        assert all_windows_digest(start_inclusive, end_inclusive) == digest

    def test_precision_rounding(self, monkeypatch):
        report = canonical_report()
        assert to_json_dict(report)["ols"] is report.ols_fit
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "3")
        coarse = json.loads(to_json(report))
        assert coarse["ols"]["sigma"] == round_sig(report.ols_fit.sigma, 3)

    def test_precision_env_var(self, monkeypatch):
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "3")
        doc = {"a": 1.23456, "b": [2.71828, 7], "c": True}
        assert json.loads(dump_json(doc)) == {"a": 1.23, "b": [2.72, 7], "c": True}
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "zero")
        with pytest.raises(SteadyCreditError):
            resolve_precision()
        with pytest.raises(SteadyCreditError, match="must be an integer"):
            dump_json(doc)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_is_rejected(self, value):
        with pytest.raises(SteadyCreditError, match="non-finite"):
            dump_json({"chi2": value})

    @pytest.mark.parametrize("doc, path", [
        ({"a": [1.0, {"b": float("nan")}]}, "a[1].b"),
        ([0.5, [float("inf")]], "[1][0]"),
        ({"huge": 1.7e308}, "huge"),  # rounds to 2e+308 at one digit
        ({"n": [True, np.float64(1.7e308)]}, "n[1]"),
        (float("-inf"), "the document"),
        ({"ols": ols.OlsFit(3, 0.0, 0.0, None, 1.0, 0.0, 1.0, 1.0, math.inf, 0.0)}, "ols.sigma"),
        ({"extrema": (Extremum(1, None, "maximum", math.nan, 0.0),)}, "extrema[0].value"),
        ({"rows": (GapRow(Quarter(2008, 1), 1.0, 2.0, -1.0, 0.0),
                   GapRow(Quarter(2008, 2), 1.0, math.inf, -1.0, 0.0))}, "rows[1].trend"),
        ({"rows": [GapRow(Quarter(2008, 1), np.float64(1.0), 2.0, -1.0, 0.0),
                   GapRow(Quarter(2008, 2), np.float64(1.7e308), 2.0, -1.0, 0.0)]},
         "rows[1].credit_to_gdp"),
        # the first fault in row order, not in field order
        ((GapRow(Quarter(2008, 1), 1.0, 2.0, -1.0, math.nan),
          GapRow(Quarter(2008, 2), math.nan, 2.0, -1.0, 0.0)), "[0].buffer_add_on"),
        ([Extremum(1, None, "maximum", 1.0, 0.0),
          GapRow(Quarter(2008, 2), 1.0, 2.0, -math.inf, 0.0)], "[1].gap"),
    ])
    def test_non_finite_error_names_key_path(self, doc, path, monkeypatch):
        monkeypatch.setenv("STEADYCREDIT_PRECISION", "1")
        with pytest.raises(SteadyCreditError) as info:
            dump_json(doc)
        assert str(info.value) == (
            f"result holds a non-finite number, which JSON cannot represent: {path}"
        )

    def test_a_record_is_written_as_an_object_of_its_fields(self):
        extremum = Extremum(3, Quarter(2008, 4), "maximum", 2.5, 0.5)
        assert dump_json(extremum) == (
            '{\n  "index": 3,\n  "quarter": "2008-Q4",\n  "kind": "maximum",\n'
            '  "value": 2.5,\n  "amplitude": 0.5\n}\n'
        )
        fit = canonical_report().ols_fit
        written = json.loads(dump_json({"ols": fit, "q": Quarter(2008, 1), "pair": (1, "a")}))
        assert list(written["ols"].items()) == [
            (field, json.loads(dump_json(value))) for field, value in zip(fit._fields, fit)
        ]
        assert written["q"] == "2008-Q1"
        assert written["pair"] == [1, "a"]

        class T(tuple):
            """A tuple subclass that is not a named tuple."""

        for value in ({1.0}, CreditObservation(Quarter(2008, 1), 1.0, 0.0), T((1, 2))):
            message = f"^Object of type {type(value).__name__} is not JSON serializable$"
            with pytest.raises(TypeError, match=message):
                dump_json({"v": value})

    @pytest.mark.parametrize("digits", [1, 6, 14, 15, 16, 17])
    def test_float_boundaries_match_rounding_oracle(self, digits, monkeypatch):
        # the ends of the fixed notation of format 'g' and of repr, and the
        # 15-digit limit of the writer's shortcut past the float parse
        monkeypatch.setenv("STEADYCREDIT_PRECISION", str(digits))
        edge = 10.0**digits
        values = [9.99995e-5, 1e-4, math.nextafter(edge, 0.0), edge,
                  math.nextafter(edge, math.inf), 99999.95, 100.0, -0.0, 5e-324,
                  2.2250738585072014e-308]
        values += [-v for v in values]
        doc = {"float": values, "float64": [np.float64(v) for v in values],
               "other": [True, False, 0, 1, None, "1.5"]}
        assert dump_json(doc) == rounded_json_dumps(doc, digits)

    @settings(max_examples=400, deadline=None)
    @given(doc=_JSON_VALUES, digits=st.integers(1, 17))
    def test_matches_rounding_oracle(self, doc, digits):
        with mock.patch.dict(os.environ, {"STEADYCREDIT_PRECISION": str(digits)}):
            try:
                expected = rounded_json_dumps(doc, digits)
            except ValueError:
                with pytest.raises(SteadyCreditError, match="non-finite"):
                    dump_json(doc)
            else:
                assert dump_json(doc) == expected


_WINDOW_SERIES, _ = synth.generate(steady_scenario(n_quarters=12, start=Quarter(2008, 1)))


class TestWindowSelection:
    @settings(max_examples=300, deadline=None)
    @given(start=st.integers(-6, 16), span=st.integers(1, 20),
           start_inclusive=st.booleans(), end_inclusive=st.booleans())
    @example(start=0, span=11, start_inclusive=True, end_inclusive=True)
    @example(start=0, span=3, start_inclusive=False, end_inclusive=False)
    @example(start=-2, span=3, start_inclusive=False, end_inclusive=True)
    # an open bound one quarter outside the series, every quarter inside it
    @example(start=-1, span=5, start_inclusive=False, end_inclusive=True)
    @example(start=8, span=4, start_inclusive=True, end_inclusive=False)
    def test_selection_matches_quarter_filter_oracle(self, start, span, start_inclusive,
                                                     end_inclusive):
        series = _WINDOW_SERIES
        first, last = series.first_quarter, series.last_quarter
        window = Window(first.shift(start), first.shift(start + span),
                        start_inclusive, end_inclusive)
        pool = [first.shift(k) for k in range(-8, 24)]
        in_pool = [q for q, keep in zip(pool, window_filter_oracle(window, pool)) if keep]
        assert pool[window.positions(pool[0].index)] == in_pool

        full = credit_growth_rates(series)
        inside = window_filter_oracle(window, [p.interval_end for p in full.points])
        if any(inside):
            selected = select_window(full, window)
            assert selected.points == tuple(p for p, keep in zip(full.points, inside) if keep)
            # built without a check, it still passes its own
            assert RateSeries(*selected) == selected
        else:
            with pytest.raises(WindowError) as info:
                select_window(full, window)
            assert str(info.value) == f"window {window} selects no rate points"

        kept = tuple(o for o, keep in zip(series.observations,
                                          window_filter_oracle(window, series.quarters()))
                     if keep)
        if any(not first <= q <= last for q in in_pool):
            message = f"slice {window.start}..{window.end} outside series span {first}..{last}"
        elif not kept:
            message = f"slice {window} selects no observations"
        elif len(kept) < 2:
            message = f"slice {window} selects a single observation; need at least 2"
        else:
            sliced = series.slice(window)
            assert sliced == CreditSeries(kept)
            assert CreditSeries(*sliced) == sliced
            # analyze rates the window the slice accepts, and refuses every other
            report = analyze(series, window)
            assert report.rates_in == selected
            assert RateSeries(*report.rates_in) == report.rates_in
            assert outside_window(series, window) == tuple(
                p for p, keep in zip(full.points, inside) if not keep)
            return
        for cut in (lambda: series.slice(window), lambda: analyze(series, window)):
            with pytest.raises(WindowError) as info:
                cut()
            assert str(info.value) == message

    def test_analyze_computes_rates_for_the_window_only(self, tmp_path):
        series = canonical_series()
        assert series.first_quarter < CRISIS.start and CRISIS.end < series.last_quarter
        path = tmp_path / "canonical.csv"
        path.write_text(emit_csv(series), encoding="utf-8")
        built = []

        def spy(*args, **kwargs):
            rates = credit_growth_rates(*args, **kwargs)
            built.append(len(rates))
            return rates

        # window_rates and outside_window call it in rates
        with mock.patch("steadycredit.rates.credit_growth_rates", spy):
            crisis = analyze(series, CRISIS)
            assert built == [crisis.n] == [17]
            whole = analyze(series)
            assert outside_window(series, whole.window) == ()
            assert built == [17, 33]
            # the scatter's hollow markers are computed only when asked for
            assert len(outside_window(series, crisis.window)) == 33 - 17
            assert built == [17, 33, 33]
            for command in ("rates", "ols"):
                assert main([command, "--input", str(path), "--window", "crisis"]) == 0
            assert built == [17, 33, 33, 17, 17]

    def test_each_stage_runs_once_per_analysis(self):
        series = canonical_series()
        calls = []

        def spy(name, fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls.append((name, len(result) if name == "credit_growth_rates" else None))
                return result
            return counted

        targets = [("steadycredit.ols", "fit"), ("steadycredit.rates", "credit_growth_rates"),
                   ("steadycredit.steady_state", "chi2_p_value"),
                   ("steadycredit.cycles", "cycle_stats"), ("steadycredit.basel", "hp_filter")]
        with contextlib.ExitStack() as patched:
            for module, name in targets:
                patched.enter_context(mock.patch(f"{module}.{name}",
                                                 spy(name, getattr(sys.modules[module], name))))
            patched.enter_context(mock.patch.object(
                CreditSeries, "slice", spy("slice", CreditSeries.slice)))
            assert analyze(series, CRISIS).n == 17
        # one chi-squared p-value per steady-state estimator
        assert Counter(calls) == {
            ("slice", None): 1, ("fit", None): 1, ("credit_growth_rates", 17): 1,
            ("chi2_p_value", None): 2, ("cycle_stats", None): 1, ("hp_filter", None): 1}


class TestSvg:
    def test_scatter_is_well_formed_svg(self):
        text = render_svg(canonical_report(), KIND_SCATTER)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert root.attrib["version"] == "1.1"

    def test_scatter_marker_counts(self):
        report = canonical_report()
        rates_out = outside_window(canonical_series(), CRISIS)
        text = render_svg(report, KIND_SCATTER, rates_out)
        assert text.count('class="obs-in"') == report.n
        assert text.count('class="obs-out"') == len(rates_out) == 33 - 17
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
        rates_out = outside_window(canonical_series(), CRISIS)
        assert render_svg(canonical_report(), KIND_SCATTER, rates_out) == golden

    def test_unknown_kind_rejected(self):
        with pytest.raises(SteadyCreditError):
            render_svg(canonical_report(), "exhibit3")
