import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import dense_hp_oracle, exact_hp_oracle
from conftest import build_series, canonical_series
from steadycredit.basel import (
    GapConfig,
    buffer_add_on,
    credit_gap,
    gap_to_csv,
    hp_filter,
)
from steadycredit.errors import ColumnAbsentError, EstimationError, InvariantError
from steadycredit.series import Quarter


class TestHpFilter:
    def test_constant_series_preserved(self):
        y = np.full(30, 42.0)
        for lam in (1600.0, 400000.0, 1e12):
            assert np.max(np.abs(hp_filter(y, lam) - y)) <= 1e-8

    def test_linear_series_preserved(self):
        y = 3.0 + 0.5 * np.arange(40)
        for lam in (1600.0, 400000.0, 1e12):
            assert np.max(np.abs(hp_filter(y, lam) - y)) <= 1e-8

    def test_zero_lambda_is_identity(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0, 1, 25)
        assert np.array_equal(hp_filter(y, 0.0), y)

    def test_matches_dense_oracle_at_default_lambda(self):
        rng = np.random.default_rng(7)
        y = rng.normal(0, 1, 50).cumsum() + 5.0
        ours = hp_filter(y, 400000.0)
        oracle = dense_hp_oracle(y, 400000.0)
        assert np.max(np.abs(ours - oracle)) <= 1e-8

    def test_normal_equation_residual_is_small(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1, 60).cumsum()
        lam = 400000.0
        trend = hp_filter(y, lam)
        n = y.size
        d_mat = np.zeros((n - 2, n))
        for j in range(n - 2):
            d_mat[j, j], d_mat[j, j + 1], d_mat[j, j + 2] = 1.0, -2.0, 1.0
        resid = y - trend - lam * (d_mat.T @ (d_mat @ trend))
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)

    def test_linear_invariance(self):
        rng = np.random.default_rng(11)
        y = rng.normal(0, 1, 45).cumsum()
        t = np.arange(45.0)
        a, b, c = 2.5, -0.3, 7.0
        lhs = hp_filter(a * y + b * t + c, 1600.0)
        rhs = a * np.asarray(hp_filter(y, 1600.0)) + b * t + c
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))

    def test_power_of_two_scaling_is_exact_at_extreme_magnitudes(self):
        rng = np.random.default_rng(13)
        y = rng.normal(0, 1, 30).cumsum()
        trend = hp_filter(y, 400000.0)
        for k in (-600, 600):
            assert np.array_equal(hp_filter(np.ldexp(y, k), 400000.0), np.ldexp(trend, k))

    def test_huge_lambda_approaches_time_regression_line(self):
        t = np.arange(40.0)
        y = np.sin(t / 3.0) + 0.01 * t + 2.0
        trend = hp_filter(y, 1e12)
        coeffs = np.polyfit(t, y, 1)
        line = np.polyval(coeffs, t)
        assert np.max(np.abs(trend - line)) <= 1e-4 * np.max(np.abs(line))

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            hp_filter([1.0, 2.0], 1600.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(EstimationError):
            hp_filter([1.0, 2.0, 3.0], -1.0)

    @pytest.mark.parametrize(
        "y, lam",
        [
            ([1.0, 2.0, 3.0], 1e30),
            ([1.0, 2.0, 4.0], 1e30),
            ([1.0, math.inf, 3.0, 4.0], 1600.0),
            ([1e300, 1e-300, 5.0, 7.0], 1e30),
        ],
    )
    def test_degenerate_problem_raises_estimation_error(self, y, lam):
        with pytest.raises(EstimationError):
            hp_filter(y, lam)


class TestBufferMapping:
    def test_endpoints_and_midpoint_exact(self):
        cfg = GapConfig()
        assert buffer_add_on(cfg.gap_low, cfg) == 0.0
        assert buffer_add_on(cfg.gap_high, cfg) == 0.025
        assert buffer_add_on(6.0, cfg) == 0.0125

    def test_saturates_outside_thresholds(self):
        cfg = GapConfig()
        assert buffer_add_on(-5.0, cfg) == 0.0
        assert buffer_add_on(50.0, cfg) == cfg.buffer_max

    @given(st.floats(min_value=-30, max_value=30), st.floats(min_value=0.0, max_value=10.0))
    def test_monotone_in_gap(self, gap, step):
        cfg = GapConfig()
        assert buffer_add_on(gap + step, cfg) >= buffer_add_on(gap, cfg)

    def test_config_validation(self):
        with pytest.raises(InvariantError):
            GapConfig(gap_low=10.0, gap_high=2.0)
        with pytest.raises(InvariantError):
            GapConfig(buffer_max=0.0)
        with pytest.raises(InvariantError):
            GapConfig(lam=-1.0)


class TestCreditGap:
    def _series_with_gdp(self, n=24):
        rng = np.random.default_rng(5)
        tcu = 900e9 * np.exp(np.linspace(0.0, 0.2, n)) * (1 + 0.01 * np.sin(np.arange(n)))
        gdp = [400e9 + 2e9 * i for i in range(n)]
        return build_series(list(tcu), gdp=gdp)

    def test_ratio_uses_annualized_gdp(self):
        series = self._series_with_gdp()
        report = credit_gap(series)
        first = series.observations[0]
        assert report.rows[0].credit_to_gdp == pytest.approx(
            100.0 * first.tcu / (4.0 * first.gdp), rel=1e-12
        )

    def test_gap_is_exact_difference(self):
        report = credit_gap(self._series_with_gdp())
        for row in report.rows:
            assert row.gap == row.credit_to_gdp - row.trend

    def test_buffer_column_respects_mapping(self):
        cfg = GapConfig(gap_low=-0.5, gap_high=0.5, buffer_max=0.025)
        report = credit_gap(self._series_with_gdp(), cfg)
        for row in report.rows:
            assert row.buffer_add_on == buffer_add_on(row.gap, cfg)
            assert 0.0 <= row.buffer_add_on <= cfg.buffer_max

    def test_canonical_window_gap_matches_exact_oracle(self):
        series = canonical_series().slice(Quarter(2008, 2), Quarter(2012, 2))
        report = credit_gap(series)
        ratio = [row.credit_to_gdp for row in report.rows]
        trend = exact_hp_oracle(ratio, report.config.lam)
        assert len(report.rows) == 17
        for row, tau in zip(report.rows, trend):
            assert abs(row.gap - float(Fraction(row.credit_to_gdp) - tau)) <= 1e-12

    def test_missing_gdp_names_quarter(self):
        series = build_series([100.0, 101.0, 102.0], gdp=[50.0, None, 50.0])
        with pytest.raises(ColumnAbsentError, match="2008-Q2"):
            credit_gap(series)

    def test_csv_header(self):
        text = gap_to_csv(credit_gap(self._series_with_gdp(6)))
        assert text.splitlines()[0] == "quarter,credit_to_gdp,trend,gap,buffer_add_on"
        assert len(text.strip().splitlines()) == 7
