import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import two_pass_cycle_labels, unscaled_mean_se
from steadycredit.cycles import (
    KIND_MAX,
    KIND_MIN,
    KIND_STEADY,
    cycle_stats,
    overlays_to_csv,
)
from steadycredit.errors import EstimationError, InvariantError
from steadycredit.report import dump_json
from steadycredit.series import Quarter

SQRT_HALF = math.sqrt(2.0) / 2.0
# one exact period of a sine sampled eight times, starting at the upcrossing
SINE_PERIOD = [0.0, SQRT_HALF, 1.0, SQRT_HALF, 0.0, -SQRT_HALF, -1.0, -SQRT_HALF]


class TestFindExtrema:
    def test_single_maximum(self):
        (e,) = cycle_stats([1.0, 3.0, 2.0]).extrema
        assert e.index == 1 and e.kind == KIND_MAX and e.value == 3.0

    def test_single_minimum(self):
        (e,) = cycle_stats([3.0, 1.0, 2.0]).extrema
        assert e.index == 1 and e.kind == KIND_MIN

    def test_plateau_is_steady(self):
        found = cycle_stats([1.0, 2.0, 2.0, 1.0]).extrema
        assert [(e.index, e.kind) for e in found] == [(1, KIND_STEADY), (2, KIND_STEADY)]

    def test_monotone_interior_yields_nothing(self):
        assert cycle_stats([1.0, 2.0, 3.0, 4.0]).extrema == ()

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            cycle_stats([1.0, 2.0])

    def test_amplitude_is_deviation_from_mean(self):
        values = [1.0, 5.0, 1.0, 5.0, 1.0]
        found = cycle_stats(values).extrema
        mean = np.mean(values)
        for e in found:
            assert e.amplitude == abs(e.value - mean)

    def test_quarters_attach_when_given(self):
        quarters = [Quarter(2008, 1).shift(i) for i in range(3)]
        (e,) = cycle_stats([1.0, 3.0, 2.0], quarters).extrema
        assert e.quarter == Quarter(2008, 2)

    def test_values_that_are_not_numbers_rejected(self):
        # the indexed error of ols.fit and hp_filter, not float()'s TypeError
        message = r"^value at index 0 must be a number, got \[1.0\]$"
        with pytest.raises(InvariantError, match=message):
            cycle_stats([[1.0], [2.0], [3.0]])
        with pytest.raises(InvariantError, match=message):
            overlays_to_csv([[1.0], [3.0], [2.0]])

    def test_quarters_must_align_with_the_values(self):
        with pytest.raises(EstimationError, match="^quarters must align with the values$"):
            cycle_stats([1.0, 3.0, 2.0], [Quarter(2008, 1), Quarter(2008, 2)])

    @pytest.mark.parametrize("quarters", [
        iter([Quarter(2008, 1), Quarter(2008, 2), Quarter(2008, 3)]),
        {Quarter(2008, 1), Quarter(2008, 2), Quarter(2008, 3)},
        [Quarter(2008, 1), Quarter(2008, 2)],
    ], ids=["iterator", "set", "short"])
    def test_quarters_that_are_no_aligned_sequence_rejected(self, quarters):
        # an iterator has no len(), and a set no positions
        for call in (lambda: cycle_stats([1.0, 3.0, 2.0], quarters),
                     lambda: overlays_to_csv([1.0, 3.0, 2.0], quarters)):
            with pytest.raises(EstimationError,
                               match="^quarters must align with the values$"):
                call()

    @pytest.mark.parametrize("quarters, message", [
        (["a", "b", "c"], "quarter at index 0 must be a Quarter, got 'a'"),
        ("abc", "quarter at index 0 must be a Quarter, got 'a'"),
        ([Quarter(2008, 1), (2008, 2), Quarter(2008, 3)],
         r"quarter at index 1 must be a Quarter, got \(2008, 2\)"),
    ], ids=["strs", "str", "tuple"])
    def test_quarters_that_are_not_quarters_rejected(self, quarters, message):
        # once stored as Extremum.quarter and written to the JSON report
        for call in (lambda: cycle_stats([1.0, 3.0, 2.0], quarters),
                     lambda: overlays_to_csv([1.0, 3.0, 2.0], quarters)):
            with pytest.raises(InvariantError, match=f"^{message}$"):
                call()


class TestPhaseLabels:
    def test_max_label(self):
        assert cycle_stats([1.0, 3.0, 2.0]).phase_labels == ("max",)

    def test_linear_series_is_steady(self):
        assert cycle_stats([1.0, 2.0, 3.0, 4.0, 5.0]).phase_labels == ("steady",) * 3

    def test_sampled_sine_cycles_through_phases(self):
        y = SINE_PERIOD * 3
        labels = list(cycle_stats(y).phase_labels)
        # interior of the first full cycle, starting at sample 1
        assert labels[:8] == ["P2", "max", "P3", "steady", "P4", "min", "P1", "steady"]
        # each directed phase appears exactly once per cycle
        middle = labels[8:16]
        for phase in ("P1", "P2", "P3", "P4"):
            assert middle.count(phase) == 1
        assert middle.count("max") == middle.count("min") == 1

    def test_near_tie_is_classified_exactly(self):
        # comparisons are exact: a 1e-12 step is neither a plateau nor flat
        y = [0.0, 1.0, 1.0 + 1e-12, 0.0]
        assert cycle_stats(y).phase_labels == ("P2", "max")

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            cycle_stats([1.0])


class TestCycleStats:
    def test_flat_series(self):
        report = cycle_stats([10.0, 10.0, 10.0])
        assert report.series_mean == 10.0
        assert report.series_se == 0.0
        assert [e.index for e in report.extrema] == [1]
        assert all(e.kind == KIND_STEADY for e in report.extrema)
        assert report.frequency_cycles_per_year is None
        assert report.period_years is None
        assert report.peak_amplitude_mean is None

    def test_mirror_sinusoid_statistics(self):
        t = np.arange(17)
        y = 915.4 + 39.2 * np.sin(2.0 * np.pi * t / 8.0)
        report = cycle_stats(y)
        assert report.frequency_cycles_per_year == pytest.approx(0.5, abs=1e-12)
        assert report.period_years == pytest.approx(2.0, abs=1e-12)
        assert [e.index for e in report.extrema] == [2, 6, 10, 14]
        assert report.series_mean == pytest.approx(915.4, abs=0.5)
        assert report.peak_amplitude_mean == pytest.approx(39.2, rel=0.02)

    def test_hand_counted_frequency(self):
        y = [1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0, 2.0, 1.0]
        report = cycle_stats(y)
        kinds = [(e.index, e.kind) for e in report.extrema]
        assert kinds == [(2, KIND_MAX), (4, KIND_MIN), (6, KIND_MAX)]
        assert report.period_years == pytest.approx(1.0, abs=1e-12)  # 4 quarters
        assert report.frequency_cycles_per_year == pytest.approx(1.0, abs=1e-12)

    def test_single_extremum_has_no_frequency(self):
        report = cycle_stats([1.0, 3.0, 1.0])
        assert report.frequency_cycles_per_year is None
        assert report.peak_amplitude_mean is not None
        assert report.peak_amplitude_se is None


class TestInvariants:
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=5, max_size=40))
    def test_alternation_between_strict_extrema(self, raw):
        # perturb ties away so the series has no plateaus
        y = [v + i * 1e-6 for i, v in enumerate(raw)]
        found = [e for e in cycle_stats(y).extrema if e.kind != KIND_STEADY]
        for a, b in zip(found, found[1:]):
            assert a.kind != b.kind

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=4, max_size=30),
        st.integers(min_value=-1000, max_value=1000),
    )
    def test_amplitude_translation_covariance(self, raw, shift):
        # integer values keep the shifted comparisons exact
        y = [float(v) for v in raw]
        base = cycle_stats(y).extrema
        moved = cycle_stats([v + shift for v in y]).extrema
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert b.amplitude == pytest.approx(a.amplitude, abs=1e-9)

    def test_frequency_affine_invariance(self):
        rng = np.random.default_rng(17)
        y = np.sin(np.arange(24) / 2.0) + rng.normal(0, 0.05, 24)
        base = cycle_stats(y)
        scaled = cycle_stats(3.5 * y + 11.0)
        assert scaled.frequency_cycles_per_year == base.frequency_cycles_per_year


def _bits(pair):
    return [v if v is None else v.hex() for v in pair]


class TestScaledStatistics:
    # amounts 10**e for e in [-100, 100] leave no squared deviation subnormal
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-100.0, 100.0).map(lambda e: 10.0**e), min_size=3, max_size=40))
    def test_statistics_equal_the_unscaled_formula_bit_for_bit(self, y):
        report = cycle_stats(y)
        amplitudes = [e.amplitude for e in report.extrema if e.kind != KIND_STEADY]
        assert _bits(report[:2]) == _bits(unscaled_mean_se(y))
        assert _bits(report[2:4]) == _bits(unscaled_mean_se(amplitudes))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.7e308, exclude_min=True), min_size=3, max_size=40))
    @example([1e8, 1.7e308, 1e8])
    @example([1.7e308, 1e8, 1.7e308, 1e8, 1.7e308])
    def test_every_float_of_a_positive_series_report_is_finite(self, y):
        report = cycle_stats(y)
        floats = [v for v in report[:6] if v is not None]
        floats += [v for e in report.extrema for v in (e.value, e.amplitude)]
        assert all(math.isfinite(v) for v in floats)


def _near_tie_series(steps):
    """A series from steps: a fresh value, the last value moved by k ulps
    (k = 0 repeats it), or the straight-line continuation of the last two
    moved by k ulps (a near-zero second difference)."""
    y = []
    for step, value, k in steps:
        if step == "near" and y:
            value = y[-1]
        elif step == "line" and len(y) >= 2:
            value = 2.0 * y[-1] - y[-2]
        for _ in range(abs(k)):
            value = math.nextafter(value, math.copysign(math.inf, k))
        y.append(value)
    return y


SIGNED_MAGNITUDES = st.builds(lambda sign, e: sign * 10.0**e,
                              st.sampled_from([-1.0, 1.0]), st.floats(-100.0, 100.0))


class TestOnePass:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["new", "near", "line"]), SIGNED_MAGNITUDES,
                              st.integers(-3, 3)), min_size=3, max_size=40).map(_near_tie_series))
    def test_labels_and_extrema_equal_the_two_pass_oracle(self, y):
        quarters = [Quarter(2000, 1).shift(i) for i in range(len(y))]
        report = cycle_stats(y, quarters)
        extrema, labels = two_pass_cycle_labels(y, quarters)
        assert report.phase_labels == tuple(labels)
        assert [tuple(e) for e in report.extrema] == extrema

    def test_second_difference_does_not_overflow_near_the_float_limit(self):
        # 2 * 1.2e308 overflows; the halved form keeps the true sign (+0.3e308)
        assert cycle_stats([1e308, 1.2e308, 1.7e308]).phase_labels == ("P1",)
        assert cycle_stats([1.7e308, 1.2e308, 1e308]).phase_labels == ("P4",)


class TestExports:
    def test_json_shape(self):
        doc = json.loads(dump_json(cycle_stats([1.0, 3.0, 1.0, 3.0, 1.0])))
        assert doc["frequency_cycles_per_year"] is not None
        assert {e["kind"] for e in doc["extrema"]} == {KIND_MAX, KIND_MIN}

    def test_overlays_csv_aligns_rows(self):
        y = [1.0, 3.0, 2.0]
        lines = overlays_to_csv(y).strip().splitlines()
        assert lines[0] == "index,quarter,value,phase,extremum_kind,amplitude"
        assert len(lines) == 4
        assert "max" in lines[2]

    def test_overlays_csv_values_parse_back(self):
        y = [1.0, 3.0, 2.5]
        report = cycle_stats(y)
        rows = [line.split(",") for line in overlays_to_csv(y).splitlines()[1:]]
        assert [float(row[2]) for row in rows] == y
        assert float(rows[1][5]) == report.extrema[0].amplitude
