import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import window_filter_oracle
from conftest import build_series, canonical_series, steady_scenario
from steadycredit import synth
from steadycredit.basel import GapRow, credit_gap
from steadycredit.cycles import cycle_stats
from steadycredit.errors import (
    ContiguityError,
    EstimationError,
    InvariantError,
    ParseError,
    WindowError,
)
from steadycredit.ols import fit
from steadycredit.rates import RatePoint, credit_growth_rates
from steadycredit.series import (
    CSV_HEADER,
    CreditObservation,
    CreditSeries,
    Quarter,
    Window,
    csv_text,
    emit_csv,
    finite,
    parse_csv,
)


class TestQuarter:
    def test_parse_and_str_round_trip(self):
        q = Quarter.parse("2008-Q2")
        assert q == Quarter(2008, 2)
        assert str(q) == "2008-Q2"

    @pytest.mark.parametrize("text", ["2008Q2", "2008-Q5", "2008-Q0", "08-Q1", "x",
                                      "0999-Q4", "10000-Q1", "2٠٠٨-Q2",
                                      "2００８-Q2"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            Quarter.parse(text)

    def test_ordering_is_lexicographic(self):
        assert Quarter(2008, 2) < Quarter(2008, 3) < Quarter(2009, 1)

    def test_successor_wraps_year(self):
        assert Quarter(2008, 4).shift(1) == Quarter(2009, 1)
        assert Quarter(2009, 1).shift(-1) == Quarter(2008, 4)

    @given(st.integers(min_value=1900, max_value=2100), st.integers(min_value=1, max_value=4),
           st.integers(min_value=-40, max_value=40))
    def test_index_shift_round_trip(self, year, q, k):
        quarter = Quarter(year, q)
        assert Quarter.from_index(quarter.index) == quarter
        assert quarter.shift(k).index == quarter.index + k

    @given(st.tuples(st.integers(1900, 2100), st.integers(1, 4)),
           st.tuples(st.integers(1900, 2100), st.integers(1, 4)))
    def test_order_equality_and_hash_follow_year_then_quarter(self, a, b):
        qa, qb = Quarter(*a), Quarter(*b)
        assert (qa < qb, qa <= qb, qa == qb, qa != qb, qa >= qb, qa > qb) == (
            a < b, a <= b, a == b, a != b, a >= b, a > b)
        assert hash(qa) == hash(a) and len({qa, qb}) == len({a, b})
        assert qa.index == a[0] * 4 + a[1] - 1

    def test_rejects_bad_quarter_number(self):
        with pytest.raises(InvariantError):
            Quarter(2008, 5)

    @given(st.integers(-20000, 20000), st.integers(0, 5))
    @example(999, 4)
    @example(1000, 1)
    @example(9999, 4)
    @example(10000, 1)
    def test_every_quarter_prints_as_text_parse_reads_back(self, year, q):
        try:
            quarter = Quarter(year, q)
        except InvariantError:
            return
        assert Quarter.parse(str(quarter)) == quarter

    def test_year_must_have_four_digits(self):
        assert (str(Quarter(1000, 1)), str(Quarter(9999, 4))) == ("1000-Q1", "9999-Q4")
        for year in (999, 10000, -1):
            with pytest.raises(InvariantError,
                               match=f"quarter year must be in 1000..9999, got {year}"):
                Quarter(year, 1)
        for quarter, step, year in ((Quarter(1000, 1), -1, 999), (Quarter(9999, 4), 1, 10000)):
            with pytest.raises(InvariantError, match=f"got {year}"):
                quarter.shift(step)


_HEADER = ",".join(CSV_HEADER) + "\n"


class TestParseCsv:
    def test_two_rows_map_fields(self, two_quarter_csv):
        series = parse_csv(two_quarter_csv)
        assert len(series) == 2
        first, second = series.observations
        assert first.quarter == Quarter(2008, 2)
        assert first.tcu == 910e9 and first.abd == 3.6e9 and first.loans == 18e9
        assert first.gdp is None
        assert second.quarter == Quarter(2008, 3)
        assert second.tcu == 915e9

    def test_gap_names_missing_quarter(self):
        text = (
            "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
            "2008-Q2,910e9,3.6e9,,\n"
            "2009-Q1,915e9,3.8e9,,\n"
        )
        with pytest.raises(ContiguityError, match="2008-Q3"):
            parse_csv(text)

    def test_abd_above_previous_tcu_rejected(self):
        text = (
            "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
            "2008-Q2,100,1,,\n"
            "2008-Q3,90,150,,\n"
        )
        with pytest.raises(InvariantError, match="2008-Q3"):
            parse_csv(text)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_csv("quarter,tcu,abd,loans,gdp\n2008-Q2,1,0,,\n")

    def test_malformed_row_reports_line_number(self):
        text = (
            "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
            "2008-Q2,910e9,3.6e9,,\n"
            "2008-Q3,not-a-number,3.8e9,,\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            parse_csv(text)

    def test_blank_rows_are_skipped(self):
        rows = ["quarter,tcu_eur,abd_eur,loans_eur,gdp_eur", "2008-Q2,910e9,3.6e9,,",
                "2008-Q3,915e9,3.8e9,,"]
        blanks = [rows[0], "", rows[1], "   ", rows[2], ""]
        assert parse_csv("\n".join(blanks)) == parse_csv("\n".join(rows) + "\n")

    def test_row_with_an_extra_field_names_its_line(self):
        text = "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n2008-Q2,910e9,3.6e9,,,\n"
        with pytest.raises(ParseError, match="^line 2: expected 5 fields, got 6$"):
            parse_csv(text)

    def test_quarter_outside_four_digit_years_names_its_line(self):
        text = (
            "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
            "0999-Q4,910e9,3.6e9,,\n"
            "1000-Q1,915e9,3.8e9,,\n"
        )
        with pytest.raises(ParseError) as info:
            parse_csv(text)
        assert str(info.value) == "line 2: bad quarter '0999-Q4', expected YYYY-Qn"

    def test_out_of_order_after_the_last_quarter_is_a_contiguity_error(self):
        # the quarter expected after 9999-Q4 does not exist
        text = (
            "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
            "9999-Q4,910e9,3.6e9,,\n"
            "9999-Q3,915e9,3.8e9,,\n"
        )
        with pytest.raises(ContiguityError) as info:
            parse_csv(text)
        assert str(info.value) == "quarters out of order at 9999-Q3, after 9999-Q4"

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_any_line_ending_parses_alike(self, newline):
        # lines split as in a file opened with newline="", so a lone \r ends a row
        text = emit_csv(synth.generate(steady_scenario(seed=9))[0])
        assert parse_csv(text.replace("\n", newline)) == parse_csv(text)

    def test_missing_required_amount_rejected(self):
        text = (
            "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
            "2008-Q2,,3.6e9,,\n"
            "2008-Q3,915e9,3.8e9,,\n"
        )
        with pytest.raises(ParseError, match="tcu_eur"):
            parse_csv(text)

    @pytest.mark.parametrize("text, message", [
        pytest.param("", "line 1: empty input, header row required", id="empty"),
        pytest.param("\n", "line 1: bad header [], expected " + ",".join(CSV_HEADER),
                     id="blank-header"),
        pytest.param(_HEADER + "\n\n2008-Q1,1,2,\n", "line 4: expected 5 fields, got 4",
                     id="after-blank-lines"),
        pytest.param(_HEADER + "2008-Q1,1,2,,\n2008-Q2,1,-1,,\n",
                     "line 3: 2008-Q2: abd must be >= 0, got -1.0", id="invariant"),
        # the quoted line break makes the first record two lines long
        pytest.param(_HEADER + '"2008-Q1\n",100,1,,\n2008-Q2,abc,1,,\n',
                     "line 4: column tcu_eur: not a number: 'abc'", id="quoted-line-break"),
        pytest.param(_HEADER + "2008-Q1," + "1" * 140_000 + ",1,,\n",
                     "line 2: field larger than field limit (131072)", id="csv-field-limit"),
        pytest.param(_HEADER + "2٠٠٨-Q1,1,0,,\n",
                     "line 2: bad quarter '2٠٠٨-Q1', expected YYYY-Qn",
                     id="non-ascii-digits"),
        # float() reads these as 9e11; an amount is ASCII without digit separators
        pytest.param(_HEADER + "2008-Q1,9_00e9,0,,\n",
                     "line 2: column tcu_eur: not a number: '9_00e9'", id="digit-separator"),
        pytest.param(_HEADER + "2008-Q1,\uff1900e9,0,,\n",
                     "line 2: column tcu_eur: not a number: '\uff1900e9'",
                     id="non-ascii-amount"),
    ])
    def test_errors_name_the_physical_line(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_csv(text)
        assert str(info.value) == message
        assert message.startswith(f"line {info.value.line}: ")

    def test_emit_parse_round_trip_is_exact(self):
        series, _ = synth.generate(steady_scenario(noise_sigma=0.003, seed=9))
        again = parse_csv(emit_csv(series))
        assert again == series
        # a second emit of the reparsed series is byte-identical
        assert emit_csv(again) == emit_csv(series)


class TestCsvText:
    @pytest.mark.parametrize("kind", [int, float, np.float64])
    def test_emit_writes_any_amount_as_its_float_repr(self, kind):
        series = build_series([kind(1000), kind(995)], abd=[kind(0), kind(5)],
                              loans=[None, kind(20)])
        assert emit_csv(series) == ("quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
                                    "2008-Q1,1000.0,0.0,,\n"
                                    "2008-Q2,995.0,5.0,20.0,\n")

    def test_numpy_amounts_give_the_rates_and_gap_csv_of_plain_floats(self):
        series = canonical_series()
        as_numpy = CreditSeries(tuple(
            dataclasses.replace(o, tcu=np.float64(o.tcu), abd=np.float64(o.abd),
                                gdp=np.float64(o.gdp))
            for o in series.observations))
        assert type(credit_growth_rates(as_numpy).points[0].d) is np.float64
        assert (csv_text(RatePoint._fields, credit_growth_rates(as_numpy).points)
                == csv_text(RatePoint._fields, credit_growth_rates(series).points))
        assert (csv_text(GapRow._fields, credit_gap(as_numpy).rows)
                == csv_text(GapRow._fields, credit_gap(series).rows))


class TestSeriesInvariants:
    def test_needs_two_observations(self):
        with pytest.raises(InvariantError):
            build_series([100.0])

    def test_rejects_nonpositive_tcu(self):
        with pytest.raises(InvariantError):
            CreditObservation(Quarter(2008, 1), 0.0, 0.0)

    def test_rejects_negative_loans(self):
        with pytest.raises(InvariantError):
            CreditObservation(Quarter(2008, 1), 10.0, 0.0, loans=-1.0)


def _long_series() -> CreditSeries:
    scenario = steady_scenario(n_quarters=66, start=Quarter(1996, 1), seed=3)
    series, _ = synth.generate(scenario)
    assert series.last_quarter == Quarter(2012, 2)
    return series


class TestSlice:
    def test_crisis_window_has_17_observations(self):
        series = _long_series()
        sub = series.slice(Window(Quarter(2008, 2), Quarter(2012, 2), True, True))
        assert len(sub) == 17  # 16 intervals inside the slice itself
        assert sub.first_quarter == Quarter(2008, 2)
        assert sub.last_quarter == Quarter(2012, 2)

    def test_exclusive_end_drops_boundary(self):
        series = _long_series()
        sub = series.slice(Window(Quarter(1996, 1), Quarter(2008, 2), True, False))
        assert len(sub) == 49
        assert sub.last_quarter == Quarter(2008, 1)

    def test_full_span_slice_is_identity(self):
        series = _long_series()
        sub = series.slice(Window(series.first_quarter, series.last_quarter, True, True))
        assert sub == series

    def test_start_not_before_end_rejected(self):
        series = _long_series()
        with pytest.raises(WindowError):
            series.slice(Window(Quarter(2010, 1), Quarter(2010, 1)))
        with pytest.raises(WindowError):
            series.slice(Window(Quarter(2011, 1), Quarter(2010, 1)))

    def test_bounds_outside_span_rejected(self):
        series = _long_series()
        with pytest.raises(WindowError):
            series.slice(Window(Quarter(1990, 1), Quarter(2000, 1)))

    def test_empty_selection_rejected(self):
        series = _long_series()
        with pytest.raises(WindowError):
            series.slice(Window(Quarter(2010, 1), Quarter(2010, 2), False, False))

    @given(st.data())
    def test_slice_never_fabricates_observations(self, data):
        series = _long_series()
        n = len(series)
        i = data.draw(st.integers(min_value=0, max_value=n - 3))
        j = data.draw(st.integers(min_value=i + 2, max_value=n - 1))
        sub = series.slice(Window(
            series.observations[i].quarter, series.observations[j].quarter,
            data.draw(st.booleans()), True,
        ))
        pool = set(series.observations)
        assert all(o in pool for o in sub.observations)


class TestWindow:
    def test_positions_respect_inclusivity(self):
        w = Window(Quarter(2008, 2), Quarter(2012, 2), True, False)
        # 2008-Q2 is position 1 of a run from 2008-Q1, 2012-Q1 position 16
        assert w.positions(Quarter(2008, 1).index) == slice(1, 17)
        assert w.positions(Quarter(2010, 1).index) == slice(0, 9)
        assert w._replace(start_inclusive=False).positions(Quarter(2008, 1).index) == slice(2, 17)

    def test_degenerate_window_rejected(self):
        with pytest.raises(WindowError):
            Window(Quarter(2008, 2), Quarter(2008, 2))

    @given(st.integers(1900, 2100), st.integers(1, 4), st.integers(1, 40),
           st.integers(-45, 45), st.booleans(), st.booleans())
    def test_positions_match_quarter_filter_oracle(self, year, q, span, offset,
                                                   start_inclusive, end_inclusive):
        start = Quarter(year, q)
        window = Window(start, start.shift(span), start_inclusive, end_inclusive)
        # a run of quarters before, across or after the window
        run = [start.shift(offset + k) for k in range(30)]
        inside = [x for x, keep in zip(run, window_filter_oracle(window, run)) if keep]
        assert run[window.positions(run[0].index)] == inside


class TestFinite:
    @pytest.mark.parametrize("value", [math.inf, np.float64(-np.inf), np.float64(np.nan)])
    def test_a_non_finite_float_field_is_named(self, value):
        report = cycle_stats([1.0, 3.0, 2.0, 4.0])._replace(series_se=value)
        with pytest.raises(EstimationError) as info:
            finite(report)
        assert str(info.value) == f"series_se is not finite, got {value}"

    def test_none_and_fields_of_other_kinds_pass(self):
        fitted = fit([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])  # a zero slope: no x axis intercept
        assert fitted.x_intercept is None and finite(fitted) is fitted
        report = cycle_stats([1.0, 3.0, 2.0, 4.0], [Quarter(2008, q) for q in (1, 2, 3, 4)])
        assert finite(report) is report
