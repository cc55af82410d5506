import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from _oracles import (
    bisection_only_root,
    chi2_tail_by_quadrature,
    log_space_irr_root,
    zeta_grid_oracle,
)
from conftest import OLS_SCALE_OVERFLOW_CSV, UNIT_ZETA_CSV, steady_scenario
from steadycredit import steady_state, synth
from steadycredit.errors import EstimationError, InvariantError
from steadycredit.rates import F_SOURCE_BALANCE, RatePoint, RateSeries, credit_growth_rates
from steadycredit.report import dump_json
from steadycredit.series import Quarter, fsum, parse_csv
from steadycredit.steady_state import (
    METHOD_IRR_ROOT,
    METHOD_LEAST_SQUARES,
    chi2_p_value,
    expected_growth,
    ssp_irr_root,
    ssp_least_squares,
    trajectory,
)


def rate_series(d_values, f_values, start=Quarter(2008, 2)) -> RateSeries:
    points = tuple(
        RatePoint(start.shift(i), d, f, F_SOURCE_BALANCE)
        for i, (d, f) in enumerate(zip(d_values, f_values))
    )
    return RateSeries(points)


def h1_rates(zeta: float, n: int = 17, d_base=0.004, d_amp=0.002, period=8) -> RateSeries:
    k = np.arange(1, n + 1)
    d = d_base + d_amp * np.sin(2 * np.pi * k / period)
    f = (d + zeta) / (1 - d)
    return rate_series(d, f)


class TestExpectedGrowth:
    def test_no_defaults_no_growth(self):
        assert expected_growth(0.0, 0.0) == 0.0

    def test_even_odds(self):
        assert expected_growth(0.5, 0.0) == 1.0

    def test_hand_arithmetic(self):
        assert expected_growth(0.004, 0.00245) == pytest.approx(
            0.00645 / 0.996, abs=1e-15
        )

    def test_rejects_unit_default_rate(self):
        with pytest.raises(EstimationError):
            expected_growth(1.0, 0.0)

    def test_growth_leaving_the_float_range_is_an_estimation_error(self):
        # both arguments are finite, but (0.5 + 1e308) / 0.5 is not
        with pytest.raises(EstimationError, match="^expected growth is not finite, got inf$"):
            expected_growth(0.5, 1e308)


class TestChiSquared:
    # the statistic of an estimate with an explicit scale: sum_k ((f_k - e_k) / sigma_ref)^2
    def test_zero_residuals(self):
        # d = 0 and a constant f: the least-squares zeta is f, so every residual is 0
        est = ssp_least_squares(rate_series([0.0] * 3, [0.5] * 3), sigma_ref=0.5)
        assert (est.zeta, est.chi2, est.dof, est.p_value) == (0.5, 0.0, 2, 1.0)

    def test_unit_standardized_residuals_sum_to_n(self):
        # d = 0 and f alternating 0.5 +- 0.25: zeta = 0.5, each residual is +-0.25
        n = 8
        est = ssp_least_squares(rate_series([0.0] * n, [0.75, 0.25] * (n // 2)),
                                sigma_ref=0.25)
        assert (est.zeta, est.chi2, est.dof) == (0.5, float(n), n - 1)

    def test_overflowing_statistic_is_an_estimation_error(self):
        # residuals of ~0.25 over a scale of 1e-300 square past the float range
        rates = rate_series([0.0, 0.0], [0.5, 1.0])
        for estimator in (ssp_least_squares, ssp_irr_root):
            with pytest.raises(EstimationError,
                               match="^chi-squared statistic overflows the float range$"):
                estimator(rates, sigma_ref=1e-300)

    def test_a_bad_scale_is_refused_before_the_solve(self):
        # on these rates both solves fail; an explicit scale is checked first
        rates = credit_growth_rates(parse_csv(UNIT_ZETA_CSV))
        for estimator, solve_error in ((ssp_least_squares, "zeta is -1"),
                                       (ssp_irr_root, "discount-factor root is above")):
            with pytest.raises(InvariantError) as info:
                estimator(rates, sigma_ref="1")
            assert str(info.value) == "sigma_ref must be a number, got '1'"
            with pytest.raises(EstimationError, match=f"^{solve_error}"):
                estimator(rates, sigma_ref=1.0)


def test_fsum_of_both_infinities_is_an_estimation_error():
    with pytest.raises(EstimationError, match=r"^sum adds \+inf and -inf$"):
        fsum([math.inf, -math.inf])


class TestChi2PValue:
    def test_zero_statistic_has_unit_tail(self):
        assert chi2_p_value(0.0, 16) == 1.0

    def test_dof_two_closed_form(self):
        # for two degrees of freedom the tail is exp(-chi2 / 2)
        chi2 = 2.0 * math.log(2.0)
        assert chi2_p_value(chi2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_crisis_statistic_is_significant(self):
        p = chi2_p_value(37.47, 16)
        assert p < 0.005
        assert p == pytest.approx(0.0018, abs=2e-4)

    def test_matches_quadrature_oracle(self):
        p = chi2_p_value(37.47, 16)
        oracle = chi2_tail_by_quadrature(37.47, 16)
        assert abs(p - oracle) <= 0.1 * oracle

    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 7, 16, 17, 48, 65, 100, 1000])
    @pytest.mark.parametrize("chi2", [0.5, 4.0, 20.0, 37.47, 150.0, 1000.0, 1e4])
    def test_matches_library_gamma(self, dof, chi2):
        ours = chi2_p_value(chi2, dof)
        lib = float(special.gammaincc(dof / 2.0, chi2 / 2.0))
        assert abs(ours - lib) <= 1e-10

    def test_extreme_statistics(self):
        # half of the smallest subnormal underflows to x = 0; a huge
        # statistic drives every term and the erfc to zero
        assert chi2_p_value(5e-324, 3) == 1.0
        assert chi2_p_value(1e308, 5) == 0.0

    @given(st.floats(min_value=0.0, max_value=1e6), st.integers(min_value=1, max_value=2000))
    def test_is_a_probability(self, chi2, dof):
        assert 0.0 <= chi2_p_value(chi2, dof) <= 1.0

    def test_rejects_bad_arguments(self):
        for chi2, dof, error, message in [
            (-1.0, 4, EstimationError, "chi2 must be non-negative, got -1.0"),
            (math.nan, 3, InvariantError, "chi2 must be finite, got nan"),
            (math.inf, 3, InvariantError, "chi2 must be finite, got inf"),
            (10**5000, 3, InvariantError, "chi2 must be finite, got an int of 16610 bits"),
            ("3", 2, InvariantError, "chi2 must be a number, got '3'"),
            (True, 2, InvariantError, "chi2 must be a number, got True"),
            (1.0, 0, EstimationError, "dof must be an integer in 1..100000, got 0"),
            (3.0, 2.5, InvariantError, "dof must be an integer, got 2.5"),
            (1.0, True, InvariantError, "dof must be an integer, got True"),
            (1.0, -10**5000, EstimationError,
             "dof must be an integer in 1..100000, got a negative int of 16610 bits"),
            # the sum has dof/2 terms, so a dof past the cap is refused, not summed
            (1.0, 100_001, EstimationError, "dof must be an integer in 1..100000, got 100001"),
            (1.0, 10**400, EstimationError,
             f"dof must be an integer in 1..100000, got {10**400}"),
        ]:
            with pytest.raises(error) as info:
                chi2_p_value(chi2, dof)
            assert type(info.value) is error and str(info.value) == message


class TestLeastSquares:
    def test_exact_null_data_gives_zero(self):
        d = np.linspace(0.002, 0.008, 17)
        f = d / (1 - d)
        est = ssp_least_squares(rate_series(d, f))
        assert abs(est.zeta) < 1e-15
        assert est.method == METHOD_LEAST_SQUARES

    def test_generator_round_trip(self):
        series, _ = synth.generate(steady_scenario(zeta_true=0.00245))
        est = ssp_least_squares(credit_growth_rates(series))
        assert abs(est.zeta - 0.00245) < 1e-12

    def test_noisy_fit_matches_grid_oracle(self):
        scenario = steady_scenario(
            n_quarters=50, zeta_true=0.0206, noise_sigma=0.01, seed=123
        )
        series, _ = synth.generate(scenario)
        rates = credit_growth_rates(series)
        est = ssp_least_squares(rates)
        oracle = zeta_grid_oracle(rates.d_values(), rates.f_values())
        assert abs(est.zeta - oracle) <= 1e-6

    def test_minimizer_is_optimal(self):
        scenario = steady_scenario(n_quarters=30, noise_sigma=0.008, seed=10)
        series, _ = synth.generate(scenario)
        rates = credit_growth_rates(series)
        est = ssp_least_squares(rates)
        d = np.asarray(rates.d_values())
        f = np.asarray(rates.f_values())

        def sse(z):
            r = f - (d + z) / (1 - d)
            return float(r @ r)

        best = sse(est.zeta)
        assert sse(est.zeta + 1e-4) > best
        assert sse(est.zeta - 1e-4) > best

    def test_needs_two_points(self):
        with pytest.raises(EstimationError):
            ssp_least_squares(rate_series([0.004], [0.005]))

    def test_zeta_of_minus_one_is_an_estimation_error(self):
        rates = credit_growth_rates(parse_csv(UNIT_ZETA_CSV))
        with pytest.raises(EstimationError,
                           match=r"^zeta is -1, so s = 1 / \(1 \+ zeta\) is undefined$"):
            ssp_least_squares(rates)

    def test_estimate_invariants(self):
        scenario = steady_scenario(n_quarters=18, noise_sigma=0.006, seed=2)
        series, _ = synth.generate(scenario)
        est = ssp_least_squares(credit_growth_rates(series))
        assert est.s * (1.0 + est.zeta) == pytest.approx(1.0, abs=1e-12)
        assert est.dof == est.n - 1
        assert est.chi2 >= 0.0
        assert est.s_for_residual / est.sigma == pytest.approx(
            math.sqrt(est.n / (est.n - 1)), abs=1e-12
        )

    def test_default_reference_scale_is_ols_residual(self):
        from steadycredit.ols import fit

        scenario = steady_scenario(n_quarters=20, noise_sigma=0.005, seed=8)
        series, _ = synth.generate(scenario)
        rates = credit_growth_rates(series)
        est = ssp_least_squares(rates)
        s_ols = fit(rates.d_values(), rates.f_values()).s_for_residual
        d = np.asarray(rates.d_values())
        f = np.asarray(rates.f_values())
        resid = f - (d + est.zeta) / (1 - d)
        assert est.chi2 == pytest.approx(float(resid @ resid) / s_ols**2, rel=1e-12)

    def test_explicit_reference_scale_override(self):
        d = np.linspace(0.002, 0.008, 10)
        f = d / (1 - d) + 0.01
        est = ssp_least_squares(rate_series(d, f), sigma_ref=0.5)
        assert est.chi2 < 0.01

    @pytest.mark.parametrize("sigma_ref, error, message", [
        (math.inf, InvariantError, "sigma_ref must be finite, got inf"),
        (math.nan, InvariantError, "sigma_ref must be finite, got nan"),
        (0.0, EstimationError, "sigma_ref must be positive, got 0.0"),
        (-1, EstimationError, "sigma_ref must be positive, got -1"),
        ("0.1", InvariantError, "sigma_ref must be a number, got '0.1'"),
        (True, InvariantError, "sigma_ref must be a number, got True"),
        (10**400, InvariantError, f"sigma_ref must be finite, got {10**400}"),
        (-10**5000, InvariantError, "sigma_ref must be finite, got a negative int of 16610 bits"),
    ], ids=["inf", "nan", "zero", "negative", "str", "bool", "huge", "past-str-limit"])
    def test_rejects_reference_scale_outside_the_positive_floats(self, sigma_ref, error,
                                                                 message):
        d = np.linspace(0.002, 0.008, 10)
        for estimator in (ssp_least_squares, ssp_irr_root):
            with pytest.raises(error) as info:
                estimator(rate_series(d, d / (1 - d)), sigma_ref=sigma_ref)
            assert type(info.value) is error and str(info.value) == message

    def test_expected_growth_leaving_the_float_range_is_an_estimation_error(self):
        # zeta is finite (~1e295), but at d = 1 - 1e-16 it gives an expected growth
        # near 1e311; the explicit scale would take it on to the chi-squared statistic
        rates = rate_series([1.0 - 1e-16, 0.0, 0.0], [1e300] * 3)
        for estimator in (ssp_least_squares, ssp_irr_root):
            with pytest.raises(EstimationError,
                               match="^2008-Q2: f_expected is not finite, got inf$"):
                estimator(rates, sigma_ref=1e300)


class TestIrrRoot:
    def test_unit_factors_give_zero(self):
        d = np.linspace(0.002, 0.008, 17)
        f = d / (1 - d)  # (1+f)(1-d) = 1 exactly in real arithmetic
        est = ssp_irr_root(rate_series(d, f))
        assert abs(est.zeta) < 1e-10
        assert est.method == METHOD_IRR_ROOT

    @pytest.mark.parametrize("a, n", [(1.02, 3), (1.02, 20001), (0.5, 1100), (0.5, 3000)])
    def test_uniform_factors_closed_form(self, a, n):
        # uniform per-interval factor a: every discounted term equals (a s)^k,
        # so the unique root is s = 1/a and zeta = a - 1 exactly; a = 0.5
        # drives the cumulative factor A_k = a^k below the float range
        d = np.full(n, 0.01)
        f = a / (1 - d) - 1
        est = ssp_irr_root(rate_series(d, f))
        assert abs(est.zeta - (a - 1.0)) <= 1e-12

    def test_random_factors_match_bisection_oracle(self):
        rng = np.random.default_rng(99)
        for n, spread in [(17, 0.1)] * 5 + [(200, 0.01)] * 5:
            a = rng.uniform(1.0 - spread, 1.0 + spread, n)
            d = rng.uniform(0.001, 0.01, n)
            f = a / (1 - d) - 1
            rates = rate_series(d, f)
            est = ssp_irr_root(rates)
            cum = np.cumprod(a)
            k = np.arange(1, n + 1)

            def func(s):
                return float(np.sum(cum * s**k)) - n

            s_oracle = bisection_only_root(func, 1e-6, 10.0)
            assert abs(est.zeta - (1.0 / s_oracle - 1.0)) <= 1e-10

    def test_agrees_with_least_squares_on_exact_data(self):
        for zeta in (0.0, 0.00245, 0.020584):
            rates = h1_rates(zeta)
            ls = ssp_least_squares(rates)
            irr = ssp_irr_root(rates)
            assert abs(ls.zeta - zeta) < 1e-10
            assert abs(irr.zeta - zeta) < 1e-10

    def test_contraction_then_recovery_matches_log_space_oracle(self):
        # 1100 factors of 0.5 then 1100 of 2.0: the running product passes
        # far below the float range before it comes back
        d = [0.5] * 1100 + [0.0] * 1100
        f = [0.0] * 1100 + [1.0] * 1100
        est = ssp_irr_root(rate_series(d, f), sigma_ref=1.0)
        s_oracle = log_space_irr_root([(1.0 + fi) * (1.0 - di) for di, fi in zip(d, f)])
        assert abs(est.zeta - (1.0 / s_oracle - 1.0)) <= 1e-12

    def test_root_far_below_the_float_range_of_its_terms(self):
        # three factors of ~1e-32 then three of 1e300: A_k s^k passes below
        # the float range on the way to a root near 1e-134; at that zeta the
        # residual scale sigma overflows, so the estimate is refused
        d = [1.0 - 1e-16] * 3 + [0.0] * 3
        f = [-1.0 + 1e-16] * 3 + [1e300] * 3
        factors = [(1.0 + fi) * (1.0 - di) for di, fi in zip(d, f)]
        assert steady_state._irr_root(factors) == pytest.approx(log_space_irr_root(factors),
                                                                rel=1e-12)
        with pytest.raises(EstimationError, match="^sigma is not finite, got inf$"):
            ssp_irr_root(rate_series(d, f), sigma_ref=1e200)

    def test_step_beyond_the_float_range_is_formed_from_mantissas(self):
        # with the exponent of s (~1e-211) carried apart, the second step
        # multiplies a mantissa near 2^400 by a factor near 2^1000; the
        # product is formed again from their mantissas instead of overflowing;
        # the estimate's sigma overflows, so it is refused
        d = [0.0, 0.0]
        f = [2.0**400, 2.0**1000]
        factors = [(1.0 + fi) * (1.0 - di) for di, fi in zip(d, f)]
        assert steady_state._irr_root(factors) == pytest.approx(log_space_irr_root(factors),
                                                                rel=1e-12)
        with pytest.raises(EstimationError, match="^sigma is not finite, got inf$"):
            ssp_irr_root(rate_series(d, f), sigma_ref=1e300)

    def test_extreme_contraction_has_root_above_the_s_cap(self):
        d = np.full(8, 0.5)
        f = np.full(8, -0.9)  # factors 0.05, cumulative decade collapse
        with pytest.raises(EstimationError, match=r"root is above s=10\.0, so zeta is below -0\.9"):
            ssp_irr_root(rate_series(d, f))

    def test_needs_two_points(self):
        with pytest.raises(EstimationError):
            ssp_irr_root(rate_series([0.004], [0.005]))

    def test_root_where_a_factor_times_s_underflows(self):
        # a first factor of ~8e-25 times a root of ~9e-301 (forced by forty
        # factors of 1.5e308) lies below the float range; carried with s's
        # exponent apart, no running product underflows. The factor's
        # smallness sits mostly in 1 + f, so that the expected growth
        # (d + zeta) / (1 - d) of the first point stays finite; the
        # estimate's sigma does not, so it is refused.
        d = [1.0 - 2.0**-27] + [0.0] * 40
        f = [-1.0 + 2.0**-53] + [1.5e308] * 40
        factors = [(1.0 + fi) * (1.0 - di) for di, fi in zip(d, f)]
        s_oracle = log_space_irr_root(factors)
        assert s_oracle == pytest.approx(9.2707e-301, rel=1e-4)
        assert steady_state._irr_root(factors) == pytest.approx(s_oracle, rel=1e-12)
        with pytest.raises(EstimationError, match="^sigma is not finite, got inf$"):
            ssp_irr_root(rate_series(d, f), sigma_ref=1e200)


class TestDefaultReferenceScale:
    def test_non_finite_ols_scale_falls_back_to_the_estimate_scale(self):
        rates = credit_growth_rates(parse_csv(OLS_SCALE_OVERFLOW_CSV))
        for estimator in (ssp_least_squares, ssp_irr_root):
            est = estimator(rates)
            assert est.zeta == pytest.approx(1e150, rel=1e-12)
            assert (est.s_for_residual, est.chi2, est.dof, est.p_value) == (0.0, 0.0, 3, 1.0)

    def test_an_ols_fit_refused_for_any_field_leaves_the_estimate_scale(self):
        # d values 1e-160 apart: the OLS slope error overflows while its residual
        # scale does not, and fit refuses the whole record
        from steadycredit.ols import fit

        rates = rate_series([0.0, 1e-160, 1e-160, 0.0], [2e150, 2e150, 1e150, 1e150])
        with pytest.raises(EstimationError, match="^sigma_slope is not finite, got inf$"):
            fit(rates.d_values(), rates.f_values())
        for estimator in (ssp_least_squares, ssp_irr_root):
            est = estimator(rates)
            assert est.chi2 == pytest.approx(est.dof, rel=1e-12) and est.dof == 3

    # without an OLS fit the scale is the estimate's own, so chi2 = n - 1 by construction
    @pytest.mark.parametrize("d, f, p_value", [
        ([0.004, 0.006], [0.01, 0.02], 0.31731),
        ([0.004] * 3, [0.01, 0.02, 0.015], 0.36788),
    ], ids=["two-points", "constant-d"])
    def test_own_scale_makes_chi2_the_degrees_of_freedom(self, d, f, p_value):
        for estimator in (ssp_least_squares, ssp_irr_root):
            est = estimator(rate_series(d, f))
            assert est.chi2 == pytest.approx(est.dof, rel=1e-12) and est.dof == len(d) - 1
            assert est.p_value == pytest.approx(p_value, abs=5e-6)


class TestChiSquaredCalibration:
    def test_coverage_under_correct_model(self):
        # residual noise drawn at exactly the reference scale: the scaled
        # statistic over dof should concentrate around 1
        sigma = 0.01
        dof = 16
        band = 3.0 * math.sqrt(2.0 / dof)
        hits = 0
        rng = np.random.default_rng(31)
        base = h1_rates(0.00245)
        d = np.asarray(base.d_values())
        clean_f = np.asarray(base.f_values())
        for _ in range(200):
            noisy = rate_series(d, clean_f + rng.normal(0.0, sigma, d.size))
            est = ssp_least_squares(noisy, sigma_ref=sigma)
            if abs(est.chi2 / est.dof - 1.0) <= band:
                hits += 1
        assert hits >= 190


class TestTrajectory:
    def test_exact_steady_state_keeps_unit_index(self):
        rates = h1_rates(0.00245)
        traj = trajectory(rates, 0.00245)
        for p in traj:
            assert p.cumulative_index == pytest.approx(1.0, abs=1e-12)
            assert p.f_observed == pytest.approx(p.f_expected, abs=1e-15)

    def test_single_interval_hand_value(self):
        rates = rate_series([0.005, 0.005], [0.02, 0.02])
        traj = trajectory(rates, 0.0)
        assert traj[0].cumulative_index == pytest.approx(1.02 * 0.995, abs=1e-15)

    def test_directions_follow_observed_growth(self):
        rates = rate_series([0.004] * 4, [0.01, 0.02, 0.015, 0.015])
        traj = trajectory(rates, 0.0)
        assert [p.direction for p in traj] == [None, "rising", "falling", "flat"]

    def test_index_leaving_the_float_range_is_an_estimation_error(self):
        # the second factor of 1e300 overflows, and the third cannot bring it back
        with pytest.raises(EstimationError, match="^cumulative_index is not finite, got inf$"):
            trajectory(rate_series([0.0] * 3, [1e300, 1e300, 1e-300]), 0.0)

    def test_zeta_of_minus_one_is_an_estimation_error(self):
        with pytest.raises(EstimationError,
                           match=r"^zeta is -1, so s = 1 / \(1 \+ zeta\) is undefined$"):
            trajectory(rate_series([0.0], [1.0]), -1.0)

    def test_expected_growth_leaving_the_float_range_is_an_estimation_error(self):
        # the index shrinks by 1 / (1 + zeta) and stays finite; f_expected does not
        with pytest.raises(EstimationError,
                           match="^2008-Q2: f_expected is not finite, got inf$"):
            trajectory(rate_series([0.5, 0.5], [0.01, 0.01]), 1e308)

    def test_final_index_close_to_par_over_many_seeds(self):
        for seed in range(200):
            scenario = steady_scenario(noise_sigma=0.01, seed=seed)
            series, _ = synth.generate(scenario)
            rates = credit_growth_rates(series)
            est = ssp_least_squares(rates)
            final = trajectory(rates, est.zeta)[-1].cumulative_index
            assert 0.9 <= final <= 1.1


class TestSsfJson:
    def test_keys_match_table_column(self):
        series, _ = synth.generate(steady_scenario(noise_sigma=0.004, seed=14))
        est = ssp_least_squares(credit_growth_rates(series))
        doc = json.loads(dump_json(est))
        assert list(doc) == [
            "n", "zeta", "s", "method", "sigma", "s_for_residual",
            "chi2", "dof", "p_value",
        ]
        assert doc["dof"] == doc["n"] - 1
