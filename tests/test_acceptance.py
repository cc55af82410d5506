"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import chi2_tail_by_quadrature, ols_grid_oracle, zeta_grid_oracle
from conftest import canonical_series, published, residuals, scenario_to_text, steady_scenario
from steadycredit import synth
from steadycredit.basel import GapConfig, buffer_add_on, hp_filter
from steadycredit.cli import main
from steadycredit.cycles import cycle_stats
from steadycredit.ols import fit
from steadycredit.rates import RatePoint, RateSeries, F_SOURCE_BALANCE, credit_growth_rates
from steadycredit.report import KIND_SCATTER, analyze, render_svg, to_json
from steadycredit.series import Quarter, Window, emit_csv, parse_csv
from steadycredit.steady_state import (
    chi2_p_value,
    ssp_irr_root,
    ssp_least_squares,
)

ZETA_TARGETS = (0.0, 0.00245, 0.020584)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def _rate_series(d, f):
    points = tuple(
        RatePoint(Quarter(2008, 2).shift(i), float(dv), float(fv), F_SOURCE_BALANCE)
        for i, (dv, fv) in enumerate(zip(d, f))
    )
    return RateSeries(points)


def test_criterion_1_noiseless_ssp_recovery():
    with criterion(1, "noiseless recovery of zeta by both estimators, < 1 s"):
        started = time.perf_counter()
        for zeta in ZETA_TARGETS:
            scenario = steady_scenario(n_quarters=18, zeta_true=zeta)
            series, _ = synth.generate(scenario)
            rates = credit_growth_rates(series)
            assert len(rates) == 17
            assert abs(ssp_least_squares(rates).zeta - zeta) < 1e-10
            assert abs(ssp_irr_root(rates).zeta - zeta) < 1e-10
        assert time.perf_counter() - started < 1.0


def test_criterion_2_noisy_ssp_recovery():
    with criterion(2, "noisy recovery: unbiased mean and grid-oracle agreement, < 10 s"):
        started = time.perf_counter()
        zeta = 0.020584
        estimates = []
        for seed in range(200):
            scenario = steady_scenario(
                n_quarters=50, zeta_true=zeta, noise_sigma=0.005, seed=seed
            )
            series, _ = synth.generate(scenario)
            rates = credit_growth_rates(series)
            est = ssp_least_squares(rates)
            estimates.append(est.zeta)
            oracle = zeta_grid_oracle(rates.d_values(), rates.f_values())
            assert abs(est.zeta - oracle) <= 1e-6
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - zeta) <= 2.0 * se
        assert time.perf_counter() - started < 10.0


def test_criterion_3_ols_oracle_equivalence():
    with criterion(3, "OLS matches grid-refinement oracle, residuals orthogonal"):
        rng = np.random.default_rng(20250810)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 51))
            x = rng.uniform(-1.0, 1.0, n)
            y = rng.uniform(-1.0, 1.0, n)
            if float((x - x.mean()) @ (x - x.mean())) < 1e-3:
                continue
            fitted = fit(x, y)
            a_oracle, b_oracle = ols_grid_oracle(x, y)
            assert abs(fitted.intercept - a_oracle) < 1e-9
            assert abs(fitted.slope - b_oracle) < 1e-9
            e = residuals(fitted, x, y)
            assert abs(float(np.sum(e))) <= 1e-9 * (float(np.sum(np.abs(e))) + 1e-300)
            assert abs(float(np.sum(e * x))) <= 1e-9 * (
                float(np.sum(np.abs(e * x))) + 1e-300
            )
            checked += 1


def test_criterion_4_published_table_consistency():
    with criterion(4, "data-free internal consistency of the published table"):
        rng = np.random.default_rng(3)
        fitted = fit(rng.uniform(0, 1, 17), rng.uniform(0, 1, 17))
        assert abs(fitted.r2 - fitted.correlation**2) <= 1e-12
        assert fitted.s_for_residual / fitted.sigma == pytest.approx(
            math.sqrt(17 / 16), abs=1e-12
        )
        table = published()["crisis_window"]["ols"]
        assert table["correlation"] ** 2 == pytest.approx(table["r2"], abs=5e-5)
        printed_ratio = table["s_for_residual"] / table["sigma"]
        assert abs(printed_ratio - math.sqrt(17 / 16)) <= 1e-3 * math.sqrt(17 / 16)


def test_criterion_5_cycle_statistics_on_mirror_sinusoid():
    with criterion(5, "cycle statistics on the mirror sinusoid"):
        t = np.arange(17)
        y = 915.4e9 + 39.2e9 * np.sin(2.0 * np.pi * t / 8.0)
        report = cycle_stats(y)
        assert report.frequency_cycles_per_year == 0.5
        assert [e.index for e in report.extrema] == [2, 6, 10, 14]
        assert report.peak_amplitude_mean == pytest.approx(39.2e9, rel=0.02)
        assert report.series_mean == pytest.approx(915.4e9, rel=0.5 / 915.4)


def test_criterion_6_chi_squared_calibration_and_tail():
    with criterion(6, "chi-squared calibration under the correct model and tail value"):
        sigma = 0.01
        dof = 16
        band = 3.0 * math.sqrt(2.0 / dof)
        k = np.arange(1, 18)
        d = 0.004 + 0.002 * np.sin(2 * np.pi * k / 8)
        clean_f = (d + 0.00245) / (1 - d)
        rng = np.random.default_rng(2024)
        hits = 0
        for _ in range(200):
            noisy = _rate_series(d, clean_f + rng.normal(0.0, sigma, d.size))
            est = ssp_least_squares(noisy, sigma_ref=sigma)
            assert est.dof == dof
            if abs(est.chi2 / est.dof - 1.0) <= band:
                hits += 1
        assert hits >= 190
        p = chi2_p_value(37.47, 16)
        assert p < 0.005
        oracle = chi2_tail_by_quadrature(37.47, 16)
        assert abs(p - oracle) <= 0.1 * oracle


def test_criterion_7_hp_filter_and_buffer_mapping():
    with criterion(7, "HP trend limits and exact buffer mapping"):
        constant = np.full(40, 7.25)
        linear = 3.0 + 0.5 * np.arange(40)
        for lam in (1600.0, 400000.0, 1e12):
            assert np.max(np.abs(hp_filter(constant, lam) - constant)) <= 1e-8
            assert np.max(np.abs(hp_filter(linear, lam) - linear)) <= 1e-8
        t = np.arange(40.0)
        curved = np.sin(t / 3.0) + 0.01 * t + 2.0
        trend = hp_filter(curved, 1e12)
        line = np.polyval(np.polyfit(t, curved, 1), t)
        assert np.max(np.abs(trend - line)) <= 1e-4 * np.max(np.abs(line))
        cfg = GapConfig()
        assert buffer_add_on(2.0, cfg) == 0.0
        assert buffer_add_on(10.0, cfg) == 0.025
        assert buffer_add_on(6.0, cfg) == 0.0125


def test_criterion_8_round_trip_and_cli_pipeline(tmp_path):
    with criterion(8, "CSV round trip and simulate+ssp pipeline reproduce the truth"):
        scenario = steady_scenario(zeta_true=0.00245)
        series, truth = synth.generate(scenario)
        reparsed = parse_csv(emit_csv(series))
        recovered = credit_growth_rates(reparsed)
        for got, want in zip(recovered.points, truth.points):
            assert abs(got.d - want.d) <= 1e-12 * max(1.0, abs(want.d))
            assert abs(got.f - want.f) <= 1e-12 * max(1.0, abs(want.f))

        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(scenario_to_text(scenario), encoding="utf-8")
        csv_path = tmp_path / "series.csv"
        assert main(["simulate", "--scenario", str(cfg_path), "--seed", "42",
                     "--out", str(csv_path)]) == 0
        json_path = tmp_path / "ssp.json"
        assert main(["ssp", "--input", str(csv_path), "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text())
        assert abs(doc["least_squares"]["zeta"] - 0.00245) <= 1e-12


def test_criterion_9_golden_outputs_are_byte_stable():
    with criterion(9, "golden JSON and SVG byte-stable across consecutive runs"):
        window = Window(Quarter(2008, 2), Quarter(2012, 2), True, True)
        first = analyze(canonical_series(), window)
        second = analyze(canonical_series(), window)
        assert to_json(first) == to_json(second)
        assert render_svg(first, KIND_SCATTER) == render_svg(second, KIND_SCATTER)
