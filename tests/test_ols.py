import json
import math

import numpy as np
import pytest

from _oracles import ols_grid_oracle
from conftest import published, residuals
from steadycredit.errors import EstimationError, InvariantError
from steadycredit.ols import OlsFit, fit
from steadycredit.report import dump_json


class TestFitBasics:
    def test_perfect_line(self):
        f = fit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert f.slope == pytest.approx(1.0, abs=1e-15)
        assert f.intercept == pytest.approx(0.0, abs=1e-15)
        assert f.correlation == pytest.approx(1.0, abs=1e-15)
        assert f.r2 == pytest.approx(1.0, abs=1e-15)
        assert f.sigma == pytest.approx(0.0, abs=1e-15)
        assert f.s_for_residual == pytest.approx(0.0, abs=1e-15)

    def test_normal_equations_by_hand(self):
        # Sxy=1, Sxx=2, Syy=2 for these three points
        f = fit([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
        assert f.slope == pytest.approx(0.5, abs=1e-15)
        assert f.intercept == pytest.approx(0.5, abs=1e-15)
        assert f.correlation == pytest.approx(0.5, abs=1e-15)

    def test_too_few_points_rejected(self):
        with pytest.raises(EstimationError):
            fit([0.0, 1.0], [0.0, 1.0])

    def test_constant_x_rejected(self):
        with pytest.raises(EstimationError):
            fit([1.0, 1.0, 1.0], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("x, y, error, message", [
        ([0.0, 1.0, 2.0], [0.0, 1.0], EstimationError,
         "x and y must be one-dimensional and of equal length"),
        ([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0], InvariantError,
         r"value at index 0 must be a number, got \[0.0\]"),
    ], ids=["x0-y0", "x1-y1"])
    def test_unequal_or_nested_samples_rejected(self, x, y, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            fit(x, y)

    @pytest.mark.parametrize("scale", [1e-160, 1e100])
    def test_correlation_survives_extreme_variances(self, scale):
        # sxx * syy underflows to zero at 1e-160 and overflows at 1e100
        f = fit([0.0, 0.0, scale, 0.0], [0.0, 0.0, scale, 0.0])
        assert f.correlation == pytest.approx(1.0, abs=1e-15)


class TestPredict:
    def test_identity_line(self):
        f = fit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert f.intercept + f.slope * 0.3 == pytest.approx(0.3, abs=1e-15)

    def test_hand_value(self):
        f = fit([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])  # intercept = slope = 0.5
        assert f.intercept + f.slope * 1.0 == pytest.approx(1.0, abs=1e-15)

    def test_x_intercept_zeroes_prediction(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 20)
        y = 0.04 - 5.5 * x + rng.normal(0, 0.01, 20)
        f = fit(x, y)
        assert f.intercept + f.slope * f.x_intercept == pytest.approx(0.0, abs=1e-12)

    def test_published_crisis_fit_vanishes_at_its_intercept(self):
        f = OlsFit(**published()["crisis_window"]["ols"])
        assert abs(f.intercept + f.slope * f.x_intercept) <= 1e-6


class TestOracleEquivalence:
    def test_hundred_random_datasets(self):
        rng = np.random.default_rng(20250810)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 51))
            x = rng.uniform(-1.0, 1.0, n)
            y = rng.uniform(-1.0, 1.0, n)
            if float((x - x.mean()) @ (x - x.mean())) < 1e-3:
                continue
            f = fit(x, y)
            a_o, b_o = ols_grid_oracle(x, y)
            assert abs(f.intercept - a_o) < 1e-9
            assert abs(f.slope - b_o) < 1e-9
            checked += 1

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            x = rng.uniform(-1.0, 1.0, n)
            y = rng.uniform(-1.0, 1.0, n)
            f = fit(x, y)
            e = residuals(f, x, y)
            scale = float(np.sum(np.abs(e))) + 1e-300
            scale_x = float(np.sum(np.abs(e * x))) + 1e-300
            assert abs(float(np.sum(e))) <= 1e-9 * scale
            assert abs(float(np.sum(e * x))) <= 1e-9 * scale_x


class TestConventions:
    def test_r2_is_r_squared(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 17)
        y = rng.uniform(0, 1, 17)
        f = fit(x, y)
        assert abs(f.r2 - f.correlation * f.correlation) <= 1e-12

    def test_sign_of_r_matches_slope(self):
        f = fit([0.0, 1.0, 2.0, 3.0], [3.0, 2.5, 1.0, 0.2])
        assert f.slope < 0 and f.correlation < 0

    def test_residual_scale_ratio(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, 17)
        y = 1.0 - 2.0 * x + rng.normal(0, 0.1, 17)
        f = fit(x, y)
        assert f.s_for_residual / f.sigma == pytest.approx(math.sqrt(17 / 16), abs=1e-12)

    def test_published_crisis_table_is_self_consistent(self):
        table = published()["crisis_window"]["ols"]
        assert table["correlation"] ** 2 == pytest.approx(table["r2"], abs=5e-5)
        ratio = table["s_for_residual"] / table["sigma"]
        assert ratio == pytest.approx(math.sqrt(17 / 16), rel=1e-3)
        assert table["intercept"] / -table["slope"] == pytest.approx(
            table["x_intercept"], abs=1e-6
        )

    def test_published_pre_crisis_table_is_self_consistent(self):
        table = published()["pre_crisis_window"]["ols"]
        assert table["correlation"] ** 2 == pytest.approx(table["r2"], abs=5e-5)
        ratio = table["s_for_residual"] / table["sigma"]
        assert ratio == pytest.approx(math.sqrt(49 / 48), rel=1e-3)


class TestExport:
    def test_json_keys_match_table_rows(self):
        f = fit([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
        doc = json.loads(dump_json(f))
        assert list(doc) == [
            "n", "intercept", "sigma_intercept", "x_intercept", "slope",
            "sigma_slope", "correlation", "r2", "sigma", "s_for_residual",
        ]
        assert doc["n"] == 3
