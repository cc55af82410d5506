import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steadycredit.cycles import (
    KIND_MAX,
    KIND_MIN,
    KIND_STEADY,
    cycle_stats,
    find_extrema,
    overlays_to_csv,
    phase_labels,
    to_json,
)
from steadycredit.errors import EstimationError
from steadycredit.series import Quarter

SQRT_HALF = math.sqrt(2.0) / 2.0
# one exact period of a sine sampled eight times, starting at the upcrossing
SINE_PERIOD = [0.0, SQRT_HALF, 1.0, SQRT_HALF, 0.0, -SQRT_HALF, -1.0, -SQRT_HALF]


class TestFindExtrema:
    def test_single_maximum(self):
        (e,) = find_extrema([1.0, 3.0, 2.0])
        assert e.index == 1 and e.kind == KIND_MAX and e.value == 3.0

    def test_single_minimum(self):
        (e,) = find_extrema([3.0, 1.0, 2.0])
        assert e.index == 1 and e.kind == KIND_MIN

    def test_plateau_is_steady(self):
        found = find_extrema([1.0, 2.0, 2.0, 1.0])
        assert [(e.index, e.kind) for e in found] == [(1, KIND_STEADY), (2, KIND_STEADY)]

    def test_monotone_interior_yields_nothing(self):
        assert find_extrema([1.0, 2.0, 3.0, 4.0]) == []

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            find_extrema([1.0, 2.0])

    def test_amplitude_is_deviation_from_mean(self):
        values = [1.0, 5.0, 1.0, 5.0, 1.0]
        found = find_extrema(values)
        mean = np.mean(values)
        for e in found:
            assert e.amplitude == abs(e.value - mean)

    def test_quarters_attach_when_given(self):
        quarters = [Quarter(2008, 1).shift(i) for i in range(3)]
        (e,) = find_extrema([1.0, 3.0, 2.0], quarters=quarters)
        assert e.quarter == Quarter(2008, 2)


class TestPhaseLabels:
    def test_max_label(self):
        assert phase_labels([1.0, 3.0, 2.0]) == ["max"]

    def test_linear_series_is_steady(self):
        assert phase_labels([1.0, 2.0, 3.0, 4.0, 5.0]) == ["steady"] * 3

    def test_sampled_sine_cycles_through_phases(self):
        y = SINE_PERIOD * 3
        labels = phase_labels(y)
        # interior of the first full cycle, starting at sample 1
        assert labels[:8] == ["P2", "max", "P3", "steady", "P4", "min", "P1", "steady"]
        # each directed phase appears exactly once per cycle
        middle = labels[8:16]
        for phase in ("P1", "P2", "P3", "P4"):
            assert middle.count(phase) == 1
        assert middle.count("max") == middle.count("min") == 1

    def test_epsilon_flattens_noise(self):
        y = [0.0, 1.0, 1.0 + 1e-12, 0.0]
        assert phase_labels(y, eps=1e-9)[0] != phase_labels(y, eps=0.0)[0]

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            phase_labels([1.0, 2.0])


class TestCycleStats:
    def test_flat_series(self):
        report = cycle_stats([10.0, 10.0, 10.0])
        assert report.series_mean == 10.0
        assert report.series_se == 0.0
        assert report.extrema == tuple(find_extrema([10.0, 10.0, 10.0]))
        assert all(e.kind == KIND_STEADY for e in report.extrema)
        assert report.frequency is None
        assert report.period is None
        assert report.peak_amplitude_mean is None

    def test_mirror_sinusoid_statistics(self):
        t = np.arange(17)
        y = 915.4 + 39.2 * np.sin(2.0 * np.pi * t / 8.0)
        report = cycle_stats(y, quarters_per_year=4)
        assert report.frequency == pytest.approx(0.5, abs=1e-12)
        assert report.period == pytest.approx(2.0, abs=1e-12)
        assert [e.index for e in report.extrema] == [2, 6, 10, 14]
        assert report.series_mean == pytest.approx(915.4, abs=0.5)
        assert report.peak_amplitude_mean == pytest.approx(39.2, rel=0.02)

    def test_hand_counted_frequency(self):
        y = [1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 3.0, 2.0, 1.0]
        report = cycle_stats(y, quarters_per_year=4)
        kinds = [(e.index, e.kind) for e in report.extrema]
        assert kinds == [(2, KIND_MAX), (4, KIND_MIN), (6, KIND_MAX)]
        assert report.period == pytest.approx(1.0, abs=1e-12)  # 4 quarters
        assert report.frequency == pytest.approx(1.0, abs=1e-12)

    def test_single_extremum_has_no_frequency(self):
        report = cycle_stats([1.0, 3.0, 1.0])
        assert report.frequency is None
        assert report.peak_amplitude_mean is not None
        assert report.peak_amplitude_se is None


class TestInvariants:
    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=5, max_size=40))
    def test_alternation_between_strict_extrema(self, raw):
        # perturb ties away so the series has no plateaus
        y = [v + i * 1e-6 for i, v in enumerate(raw)]
        found = [e for e in find_extrema(y) if e.kind != KIND_STEADY]
        for a, b in zip(found, found[1:]):
            assert a.kind != b.kind

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=4, max_size=30),
        st.integers(min_value=-1000, max_value=1000),
    )
    def test_amplitude_translation_covariance(self, raw, shift):
        # integer values keep the shifted comparisons exact
        y = [float(v) for v in raw]
        base = find_extrema(y)
        moved = find_extrema([v + shift for v in y])
        assert len(base) == len(moved)
        for a, b in zip(base, moved):
            assert b.amplitude == pytest.approx(a.amplitude, abs=1e-9)

    def test_frequency_affine_invariance(self):
        rng = np.random.default_rng(17)
        y = np.sin(np.arange(24) / 2.0) + rng.normal(0, 0.05, 24)
        base = cycle_stats(y)
        scaled = cycle_stats(3.5 * y + 11.0)
        assert scaled.frequency == base.frequency


class TestExports:
    def test_json_shape(self):
        doc = to_json(cycle_stats([1.0, 3.0, 1.0, 3.0, 1.0]))
        assert doc["frequency_cycles_per_year"] is not None
        assert {e["kind"] for e in doc["extrema"]} == {KIND_MAX, KIND_MIN}

    def test_overlays_csv_aligns_rows(self):
        y = [1.0, 3.0, 2.0]
        report = cycle_stats(y)
        lines = overlays_to_csv(report, y).strip().splitlines()
        assert lines[0] == "index,quarter,value,phase,extremum_kind,amplitude"
        assert len(lines) == 4
        assert "max" in lines[2]

    def test_overlays_csv_values_parse_back(self):
        y = [1.0, 3.0, 2.5]
        report = cycle_stats(y)
        rows = [line.split(",") for line in overlays_to_csv(report, y).splitlines()[1:]]
        assert [float(row[2]) for row in rows] == y
        assert float(rows[1][5]) == report.extrema[0].amplitude
