import hashlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import scenario_to_text, steady_scenario
from steadycredit import _pcg64, synth
from steadycredit.cycles import cycle_stats
from steadycredit.errors import InvariantError, ParseError
from steadycredit.rates import F_SOURCE_BALANCE, F_SOURCE_LOANS, credit_growth_rates
from steadycredit.series import Quarter
from steadycredit.steady_state import ssp_least_squares


class TestGenerate:
    def test_deterministic_given_seed(self):
        scenario = steady_scenario(noise_sigma=0.004, seed=77)
        series_a, truth_a = synth.generate(scenario)
        series_b, truth_b = synth.generate(scenario)
        assert series_a == series_b
        assert truth_a == truth_b

    def test_different_seeds_differ(self):
        a, _ = synth.generate(steady_scenario(noise_sigma=0.004, seed=1))
        b, _ = synth.generate(steady_scenario(noise_sigma=0.004, seed=2))
        assert a != b

    def test_construction_consistency(self):
        series, truth = synth.generate(steady_scenario(noise_sigma=0.003, seed=4))
        obs = series.observations
        for point, prev, cur in zip(truth.points, obs, obs[1:]):
            rebuilt = prev.tcu * (1.0 - point.d) * (1.0 + point.f)
            assert abs(rebuilt - cur.tcu) <= 1e-12 * cur.tcu

    def test_null_hypothesis_recovery(self):
        scenario = steady_scenario(
            d_amp=0.0, hypothesis="H0", zeta_true=0.5, n_quarters=19
        )
        series, _ = synth.generate(scenario)
        rates = credit_growth_rates(series)
        for p in rates.points:
            assert p.d == pytest.approx(0.004, abs=1e-15)
            assert p.f == pytest.approx(0.004 / 0.996, abs=1e-15)

    def test_steady_state_recovery(self):
        series, _ = synth.generate(steady_scenario(zeta_true=0.00245))
        est = ssp_least_squares(credit_growth_rates(series))
        assert abs(est.zeta - 0.00245) < 1e-12

    def test_negative_growth_omits_loans(self):
        scenario = steady_scenario(
            zeta_true=-0.05, n_quarters=10, d_amp=0.0
        )  # growth pinned below zero
        series, truth = synth.generate(scenario)
        assert all(o.loans is None for o in series.observations[1:])
        assert all(p.f_source == F_SOURCE_BALANCE for p in truth.points)
        recovered = credit_growth_rates(series)
        for got, want in zip(recovered.points, truth.points):
            assert got.f == pytest.approx(want.f, abs=1e-15)

    def test_positive_growth_carries_loans(self):
        series, truth = synth.generate(steady_scenario())
        assert all(o.loans is not None for o in series.observations[1:])
        assert all(p.f_source == F_SOURCE_LOANS for p in truth.points)

    def test_explosive_noise_aborts_with_seed_and_index(self):
        scenario = steady_scenario(noise_sigma=3.0, seed=0, n_quarters=40)
        with pytest.raises(InvariantError, match=r"seed 0"):
            synth.generate(scenario)

    def test_estimator_identifiability(self):
        zeta = 0.020584
        estimates = []
        for seed in range(200):
            scenario = steady_scenario(
                n_quarters=50, zeta_true=zeta, noise_sigma=0.005, seed=seed
            )
            series, _ = synth.generate(scenario)
            estimates.append(ssp_least_squares(credit_growth_rates(series)).zeta)
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / np.sqrt(estimates.size)
        assert abs(estimates.mean() - zeta) <= 2.0 * se

    def test_mirror_scenario_cycles_on_bad_debt(self):
        # under the exact null the stock stays at its starting level, so the
        # sinusoidal default path shows up as a sinusoid in new bad debt
        d_amp = 39.2e9 / 915.4e9
        scenario = steady_scenario(
            n_quarters=18,
            tcu0=915.4e9,
            d_base=0.05,
            d_amp=d_amp,
            d_period_quarters=8,
            hypothesis="H0",
            zeta_true=0.0,
        )
        series, _ = synth.generate(scenario)
        tcu = np.asarray(series.tcu_values())
        assert np.max(np.abs(tcu - 915.4e9)) <= 1e-9 * 915.4e9
        abd = [o.abd for o in series.observations[1:]]
        report = cycle_stats(abd)
        assert report.frequency_cycles_per_year == pytest.approx(0.5, abs=1e-12)
        assert report.peak_amplitude_mean == pytest.approx(39.2e9, rel=0.02)


class TestNumpyStream:
    """``_pcg64.normal(seed, sigma, n)`` is
    ``numpy.random.default_rng(seed).normal(0.0, sigma, n).tolist()``.

    The identity relies on CPython's ``math.exp`` and ``math.log1p`` being the
    libm functions numpy's ``distributions.c`` calls, and on numpy's build
    fusing no multiply-add. It was verified on x86-64 only; on any other
    platform a difference fails these tests rather than skipping them.
    """

    # one to four 32-bit entropy words
    SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3, 2**128 + 5, 2**200 + 7]

    def test_streams_equal_numpys(self):
        for seed in self.SEEDS:
            for n in (1, 17, 66, 1000):
                for sigma in (0.004, 0.0087, 1.0):
                    want = np.random.default_rng(seed).normal(0.0, sigma, n).tolist()
                    assert _pcg64.normal(seed, sigma, n) == want, (seed, n, sigma)

    def test_long_stream_equals_numpys(self):
        # 400,000 draws reach every layer's wedge test and the tail beyond r
        want = np.random.default_rng(7).normal(0.0, 1.0, 400_000).tolist()
        assert _pcg64.normal(7, 1.0, 400_000) == want

    def test_simulate_prints_its_pinned_bytes_without_numpy(self, tmp_path):
        scenario = tmp_path / "noisy.cfg"
        scenario.write_text(scenario_to_text(steady_scenario(noise_sigma=0.004)),
                            encoding="utf-8")
        code = ('import sys; sys.modules["numpy"] = None; from steadycredit.cli import main; '
                f'sys.exit(main(["simulate", "--scenario", {str(scenario)!r}, "--seed", "7"]))')
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.blake2b(proc.stdout.encode("utf-8"), digest_size=16).hexdigest()
        assert digest == "fbc9aa0fe22777f08682a09e2afe317e"


class TestScenarioValidation:
    def test_rejects_rate_range_leaving_unit_interval(self):
        with pytest.raises(InvariantError):
            steady_scenario(d_base=0.4, d_amp=0.7)

    def test_rejects_too_few_quarters(self):
        with pytest.raises(InvariantError):
            steady_scenario(n_quarters=2)

    def test_rejects_unknown_hypothesis(self):
        with pytest.raises(InvariantError):
            steady_scenario(hypothesis="H2")

    def test_accepts_ints_and_float_subclasses_in_float_fields(self):
        scenario = steady_scenario(tcu0=900_000_000_000, d_amp=0, noise_sigma=np.float64(0.004))
        assert synth.generate(scenario)[0].observations[0].tcu == 9.0e11

    def test_rejects_negative_seed_in_text(self):
        text = scenario_to_text(steady_scenario(noise_sigma=0.004)) + "seed=-1\n"
        with pytest.raises(InvariantError, match=r"^seed must be >= 0, got -1$"):
            synth.parse_scenario(text)

    def test_rejects_scenario_running_past_9999_q4(self):
        series, _ = synth.generate(steady_scenario(n_quarters=8, start=Quarter(9998, 1)))
        assert series.last_quarter == Quarter(9999, 4)
        with pytest.raises(InvariantError, match=r"^n_quarters from 9998-Q2 must be <= 7, got 8$"):
            steady_scenario(n_quarters=8, start=Quarter(9998, 2))
        # refused as a record, so generate never draws its noise stream
        message = rf"^n_quarters from 2008-Q1 must be <= 31968, got {10**20}$"
        with pytest.raises(InvariantError, match=message):
            steady_scenario(n_quarters=10**20, noise_sigma=0.004)


class TestScenarioConfig:
    def test_text_round_trip(self):
        scenario = steady_scenario(noise_sigma=0.002, seed=123)
        assert synth.parse_scenario(scenario_to_text(scenario)) == scenario

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# steady-state run\n"
            "n_quarters=18\n\n"
            "start=2008-Q1\n"
            "tcu0=9e11\n"
            "d_base=0.004  # baseline\n"
            "d_amp=0.002\n"
            "d_period_quarters=8\n"
            "zeta_true=0.00245\n"
            "noise_sigma=0\n"
            "hypothesis=H1\n"
            "seed=7\n"
        )
        scenario = synth.parse_scenario(text)
        assert scenario.start == Quarter(2008, 1)
        assert scenario.seed == 7

    def test_seed_argument_overrides_text(self):
        text = scenario_to_text(steady_scenario(seed=1))
        assert synth.parse_scenario(text, seed=99).seed == 99

    def test_missing_keys_reported(self):
        with pytest.raises(ParseError, match="missing keys"):
            synth.parse_scenario("n_quarters=18\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            synth.parse_scenario("bogus=1\n")

    def test_line_without_equals_sign_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 1: expected key=value, got 'n_quarters 8'$"):
            synth.parse_scenario("n_quarters 8\n")

    @pytest.mark.parametrize("line, message", [
        ("n_quarters=eighteen", "line 1: bad value for n_quarters: 'eighteen'"),
        # int() and float() read these; a number in text is ASCII without digit separators
        ("n_quarters=3_4", "line 1: bad value for n_quarters: '3_4'"),
        ("tcu0=\uff19.0e11", "line 1: bad value for tcu0: '\uff19.0e11'"),
        ("zeta_true=0.002_45", "line 1: bad value for zeta_true: '0.002_45'"),
    ], ids=["word", "digit-separator", "non-ascii-digit", "fraction-separator"])
    def test_bad_value_reports_line(self, line, message):
        with pytest.raises(ParseError) as info:
            synth.parse_scenario(line + "\n")
        assert str(info.value) == message

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"])
    def test_only_line_feeds_and_carriage_returns_end_a_line(self, separator):
        # str.splitlines breaks at these as well; an editor shows one line
        with pytest.raises(ParseError, match=r"^line 1: bad value for n_quarters: ") as info:
            synth.parse_scenario(f"n_quarters=18{separator}bogus=1\n")
        assert info.value.line == 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_each_newline_convention_numbers_lines_alike(self, newline):
        with pytest.raises(ParseError, match=r"^line 3: unknown scenario key 'bogus'$"):
            synth.parse_scenario(newline.join(["# run", "n_quarters=18", "bogus=1", ""]))

    def test_bad_start_reports_line(self):
        with pytest.raises(ParseError, match=r"^line 3: bad quarter '2008-Q7', expected YYYY-Qn$"):
            synth.parse_scenario("# run\n\nstart=2008-Q7\n")
