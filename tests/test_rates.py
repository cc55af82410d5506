import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_series, steady_scenario
from steadycredit import synth
from steadycredit.errors import InvariantError, WindowError
from steadycredit.rates import (
    F_SOURCE_BALANCE,
    F_SOURCE_LOANS,
    MODE_FORCE_BALANCE,
    RatePoint,
    credit_growth_rates,
    select_window,
)
from steadycredit.series import Quarter, Window, csv_text


class TestDefaultRates:
    def test_hand_arithmetic(self):
        series = build_series([1000.0, 995.0], abd=[0.0, 5.0])
        (point,) = credit_growth_rates(series).points
        assert point.interval_end == Quarter(2008, 2)
        assert point.d == 5.0 / 1000.0

    def test_zero_abd_gives_zero_rate(self):
        series = build_series([1000.0, 1000.0], abd=[0.0, 0.0])
        assert credit_growth_rates(series).points[0].d == 0.0

    def test_output_length_is_intervals(self):
        series, _ = synth.generate(steady_scenario(n_quarters=12))
        assert len(credit_growth_rates(series)) == 11

    def test_constant_generated_rate_recovered(self):
        scenario = steady_scenario(d_amp=0.0, hypothesis="H0", n_quarters=19)
        series, _ = synth.generate(scenario)
        for d in credit_growth_rates(series).d_values():
            assert abs(d - 0.004) < 1e-12

    @given(st.floats(min_value=0.0, max_value=500.0), st.floats(min_value=0.1, max_value=499.0))
    def test_monotone_in_abd(self, abd, bump):
        lo = build_series([1000.0, 900.0], abd=[0.0, abd])
        hi = build_series([1000.0, 900.0], abd=[0.0, abd + bump])
        assert credit_growth_rates(hi).points[0].d > credit_growth_rates(lo).points[0].d


class TestCreditGrowthRates:
    def test_loans_formula_hand_arithmetic(self):
        series = build_series([1000.0, 995.0], abd=[0.0, 5.0], loans=[None, 20.0])
        point = credit_growth_rates(series).points[0]
        assert point.d == 0.005
        assert point.f == 20.0 / 995.0
        assert point.f_source == F_SOURCE_LOANS

    def test_zero_loans_gives_zero_growth(self):
        series = build_series([1000.0, 995.0], abd=[0.0, 5.0], loans=[None, 0.0])
        assert credit_growth_rates(series).points[0].f == 0.0

    def test_balance_identity_hand_arithmetic(self):
        series = build_series([1000.0, 1010.0], abd=[0.0, 5.0])
        point = credit_growth_rates(series).points[0]
        assert point.f == 1010.0 / 995.0 - 1.0
        assert point.f_source == F_SOURCE_BALANCE

    def test_force_balance_ignores_loans(self):
        series = build_series([1000.0, 1010.0], abd=[0.0, 5.0], loans=[None, 20.0])
        point = credit_growth_rates(series, MODE_FORCE_BALANCE).points[0]
        assert point.f_source == F_SOURCE_BALANCE
        assert point.f == 1010.0 / 995.0 - 1.0

    def test_prefer_loans_falls_back_per_quarter(self):
        series = build_series(
            [1000.0, 1005.0, 1012.0],
            abd=[0.0, 4.0, 4.0],
            loans=[None, 9.0, None],
        )
        points = credit_growth_rates(series).points
        assert points[0].f_source == F_SOURCE_LOANS
        assert points[1].f_source == F_SOURCE_BALANCE

    def test_generator_round_trip_exact(self):
        series, truth = synth.generate(steady_scenario(noise_sigma=0.004, seed=11))
        recovered = credit_growth_rates(series)
        for got, want in zip(recovered.points, truth.points):
            assert got.interval_end == want.interval_end
            assert abs(got.d - want.d) <= 1e-12 * max(1.0, abs(want.d))
            assert abs(got.f - want.f) <= 1e-12 * max(1.0, abs(want.f))

    def test_balance_identity_consistency(self):
        series, _ = synth.generate(steady_scenario(noise_sigma=0.004, seed=5))
        rates = credit_growth_rates(series, MODE_FORCE_BALANCE)
        obs = series.observations
        for point, prev, cur in zip(rates.points, obs, obs[1:]):
            rebuilt = prev.tcu * (1.0 - point.d) * (1.0 + point.f)
            assert abs(rebuilt - cur.tcu) <= 1e-12 * cur.tcu

    def test_unknown_mode_rejected(self):
        series = build_series([1000.0, 1010.0], abd=[0.0, 5.0])
        with pytest.raises(InvariantError, match="^unknown f_mode 'other'$"):
            credit_growth_rates(series, "other")


class TestWindowSelection:
    def _rates_1996_2012(self):
        scenario = steady_scenario(n_quarters=66, start=Quarter(1996, 1), seed=3)
        series, _ = synth.generate(scenario)
        return credit_growth_rates(series)

    def test_crisis_window_gains_lookback_interval(self):
        rates = self._rates_1996_2012()
        window = Window(Quarter(2008, 2), Quarter(2012, 2), True, True)
        sub = select_window(rates, window)
        # 17 quarters in the window give 17 intervals: the first one ends at
        # 2008-Q2 and uses the 2008-Q1 stock as its denominator
        assert len(sub) == 17
        assert sub.points[0].interval_end == Quarter(2008, 2)

    def test_window_at_series_start_has_no_lookback(self):
        rates = self._rates_1996_2012()
        window = Window(Quarter(1996, 1), Quarter(2008, 2), True, False)
        sub = select_window(rates, window)
        # no observation precedes 1996-Q1, so its interval does not exist
        assert len(sub) == 48
        assert sub.points[0].interval_end == Quarter(1996, 2)
        assert sub.points[-1].interval_end == Quarter(2008, 1)

    def test_empty_selection_rejected(self):
        rates = self._rates_1996_2012()
        with pytest.raises(WindowError):
            select_window(rates, Window(Quarter(1980, 1), Quarter(1981, 1)))


class TestCsvExport:
    def test_header_and_row_shape(self):
        series = build_series([1000.0, 995.0], abd=[0.0, 5.0], loans=[None, 20.0])
        text = csv_text(RatePoint._fields, credit_growth_rates(series).points)
        lines = text.strip().splitlines()
        assert lines[0] == "interval_end,d,f,f_source"
        assert lines[1].startswith("2008-Q2,0.005,")
        assert lines[1].endswith(F_SOURCE_LOANS)


class TestRatePointInvariants:
    def test_rejects_growth_at_minus_one(self):
        with pytest.raises(InvariantError):
            RatePoint(Quarter(2008, 1), 0.1, -1.0, F_SOURCE_BALANCE)

    def test_rejects_default_rate_of_one(self):
        with pytest.raises(InvariantError):
            RatePoint(Quarter(2008, 1), 1.0, 0.0, F_SOURCE_BALANCE)
