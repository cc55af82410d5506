import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import dense_hp_oracle, exact_hp_oracle, two_sum_second_difference
from conftest import build_series, canonical_series
from steadycredit import basel
from steadycredit.basel import (
    GapConfig,
    GapRow,
    buffer_add_on,
    credit_gap,
    hp_filter,
)
from steadycredit.errors import ColumnAbsentError, EstimationError, InvariantError
from steadycredit.series import Quarter, Window, csv_text


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

    def test_scalar_series_rejected(self):
        with pytest.raises(EstimationError,
                           match="^need a one-dimensional series of length >= 3$"):
            hp_filter(5, 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(EstimationError):
            hp_filter([1.0, 2.0, 3.0], -1.0)

    @pytest.mark.parametrize("lam, message", [
        ("1600", "lam must be a number, got '1600'"),
        (True, "lam must be a number, got True"),
        (None, "lam must be a number, got None"),
        (math.nan, "lam must be finite, got nan"),
        (10**400, f"lam must be finite, got {10**400}"),
        (-10**5000, "lam must be finite, got a negative int of 16610 bits"),
    ], ids=["str", "bool", "none", "nan", "huge", "past-str-limit"])
    def test_lambda_that_is_no_float_rejected(self, lam, message):
        # series.number's rule and message, as for GapConfig.lam
        with pytest.raises(InvariantError) as info:
            hp_filter([1.0, 2.0, 3.0], lam)
        assert type(info.value) is InvariantError and str(info.value) == message

    @pytest.mark.parametrize("y, message", [
        ([1.0, math.inf, 3.0, 4.0], "value at index 1 must be finite, got inf"),
        ([1.0, 2.0, 10**400], f"value at index 2 must be finite, got {10**400}"),
        (np.array([1.0, 2.0, np.nan]), "value at index 2 must be finite, got nan"),
    ], ids=["inf", "huge", "numpy-nan"])
    def test_non_finite_value_rejected_by_position(self, y, message):
        with pytest.raises(InvariantError) as info:
            hp_filter(y, 1600.0)
        assert type(info.value) is InvariantError and str(info.value) == message

    @pytest.mark.parametrize(
        "y, lam",
        [
            ([1.0, 2.0, 3.0], 1e30),
            ([1.0, 2.0, 4.0], 1e30),
            ([1e300, 1e-300, 5.0, 7.0], 1e30),
        ],
    )
    def test_degenerate_problem_raises_estimation_error(self, y, lam):
        with pytest.raises(EstimationError):
            hp_filter(y, lam)


def _two_sum_penalty_apply(v):
    """D'D v with D v formed by the two-sum oracle, the outer D' as the filter forms it."""
    z = two_sum_second_difference(v)
    pad = [0.0, 0.0]
    return [a - 2.0 * b + c for a, b, c in zip(z + pad, [0.0] + z + [0.0], pad + z)]


def _trend_bits(y, lam):
    try:
        return [v.hex() for v in hp_filter(y, lam)]
    except EstimationError as exc:
        return str(exc)


_SMOOTH = st.builds(
    lambda n, level, slope, amp, period: [
        level + slope * t + amp * math.sin(t / period) for t in range(n)],
    st.integers(3, 60), st.floats(-1e3, 1e3), st.floats(-10.0, 10.0),
    st.floats(0.0, 10.0), st.floats(1.0, 20.0),
)
_NOISY = st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=60)


class TestCorrectlyRoundedResidual:
    @settings(max_examples=200, deadline=None)
    @given(y=st.one_of(_SMOOTH, _NOISY), lam=st.sampled_from([1600.0, 4e5, 1e12]))
    def test_trend_bits_equal_those_of_the_two_sum_residual(self, y, lam):
        with mock.patch.object(basel, "_penalty_apply", _two_sum_penalty_apply):
            expected = _trend_bits(y, lam)
        assert _trend_bits(y, lam) == expected

    # the two-sum cascade rounds this entry one ulp away from the exact sum
    @example(a=-7.473496561871182e-216, mid=-0.0017656869460580173, c=-0.05823711509353713)
    @given(a=st.floats(-1.0, 1.0), mid=st.floats(-1.0, 1.0), c=st.floats(-1.0, 1.0))
    def test_second_difference_is_correctly_rounded(self, a, mid, c):
        # hp_filter scales every value into [-1, 1] before forming the residual
        exact = Fraction(a) - 2 * Fraction(mid) + Fraction(c)
        assert basel._penalty_apply([a, mid, c])[0] == float(exact)


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
        series = canonical_series().slice(Window(Quarter(2008, 2), Quarter(2012, 2)))
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
        text = csv_text(GapRow._fields, credit_gap(self._series_with_gdp(6)).rows)
        assert text.splitlines()[0] == "quarter,credit_to_gdp,trend,gap,buffer_add_on"
        assert len(text.strip().splitlines()) == 7
