"""Discrete cycle analysis: extrema, phase labels, amplitude and frequency.

A point is a maximum when it strictly exceeds both neighbours, a minimum
when both neighbours strictly exceed it, and steady when it equals at
least one neighbour. Interior points that are not extrema or plateaus get
a directed phase from the signs of the centred first difference
y(t+1) - y(t-1) and the three-point second difference
y(t+1) - 2 y(t) + y(t-1):

    P1  rising, accelerating        P3  falling, accelerating downward
    P2  rising, decelerating        P4  falling, decelerating downward

Zero curvature labels the point steady (a straight trend has no phase).
``CycleReport`` and ``Extremum`` name their fields like the published cycle
statistics, in the order of their JSON objects.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import EstimationError
from .series import Quarter, csv_text
from .sums import fsum

KIND_MAX = "maximum"
KIND_MIN = "minimum"
KIND_STEADY = "steady"

QUARTERS_PER_YEAR = 4


class Extremum(NamedTuple):
    index: int
    quarter: Quarter | None
    kind: str
    value: float
    amplitude: float  # absolute deviation from the series mean


class CycleReport(NamedTuple):
    series_mean: float
    series_se: float
    peak_amplitude_mean: float | None
    peak_amplitude_se: float | None
    frequency_cycles_per_year: float | None
    period_years: float | None
    extrema: tuple[Extremum, ...]
    phase_labels: tuple[str, ...]  # one per interior point


def _classify(
    y: Sequence[float], quarters: Sequence[Quarter] | None
) -> tuple[list[float], list[tuple[str | None, str]]]:
    """The values as floats, and each interior point's extremum kind and phase.

    The kind is None for a point that is strictly monotone through; such a
    point gets its directed phase from the difference sign pairs, with zero
    curvature as steady.
    """
    ys = [float(v) for v in y]
    if len(ys) < 3:
        raise EstimationError(f"need at least 3 points, got {len(ys)}")
    if quarters is not None and len(quarters) != len(ys):
        raise EstimationError("quarters must align with the values")
    classes: list[tuple[str | None, str]] = []
    for t in range(1, len(ys) - 1):
        left, mid, right = ys[t - 1], ys[t], ys[t + 1]
        if mid - left == 0.0 or mid - right == 0.0:
            classes.append((KIND_STEADY, "steady"))
        elif mid > left and mid > right:
            classes.append((KIND_MAX, "max"))
        elif mid < left and mid < right:
            classes.append((KIND_MIN, "min"))
        else:
            d1 = right - left
            d2 = right - 2.0 * mid + left
            if d2 == 0.0 or d1 == 0.0:
                label = "steady"
            elif d1 > 0.0:
                label = "P1" if d2 > 0.0 else "P2"
            else:
                label = "P3" if d2 < 0.0 else "P4"
            classes.append((None, label))
    return ys, classes


def _mean_se(values: list[float]) -> tuple[float | None, float | None]:
    """Mean and standard error: sample sd (n - 1 denominator) over sqrt(n).

    Both are computed on the values times 2**-shift, with ``shift`` the binary
    exponent of the largest magnitude as in ``basel.hp_filter``, and scaled
    back. A power-of-two scale is exact, so the result is the plain formula's
    wherever no square is subnormal, and no sum or square of a stock near the
    float limit overflows.
    """
    if not values:
        return None, None
    n = len(values)
    shift = math.frexp(max(map(abs, values)))[1]
    scaled = [math.ldexp(v, -shift) for v in values]
    mean = fsum(scaled) / n
    if n < 2:
        return math.ldexp(mean, shift), None
    var = fsum((v - mean) * (v - mean) for v in scaled) / (n - 1)
    return math.ldexp(mean, shift), math.ldexp(math.sqrt(var) / math.sqrt(n), shift)


def cycle_stats(y: Sequence[float], quarters: Sequence[Quarter] | None = None) -> CycleReport:
    """Full cycle report of a series.

    The period is the mean index distance between consecutive extrema of
    the same kind, converted to years; frequency is its reciprocal. With
    no same-kind pair both are reported absent, never silently zero.
    """
    ys, classes = _classify(y, quarters)
    series_mean, series_se = _mean_se(ys)
    extrema = [
        Extremum(t, quarters[t] if quarters is not None else None, kind, ys[t],
                 abs(ys[t] - series_mean))
        for t, (kind, _) in enumerate(classes, 1)
        if kind is not None
    ]

    strict = [e for e in extrema if e.kind != KIND_STEADY]
    amp_mean, amp_se = _mean_se([e.amplitude for e in strict])

    gaps: list[int] = []
    for kind in (KIND_MAX, KIND_MIN):
        idx = [e.index for e in strict if e.kind == kind]
        gaps.extend(b - a for a, b in zip(idx, idx[1:]))
    period_years = sum(gaps) / len(gaps) / QUARTERS_PER_YEAR if gaps else None
    return CycleReport(series_mean, series_se, amp_mean, amp_se,
                       1.0 / period_years if gaps else None, period_years,
                       tuple(extrema), tuple(label for _, label in classes))


def overlays_to_csv(report: CycleReport, y: Sequence[float],
                    quarters: Sequence[Quarter] | None = None) -> str:
    """Per-point CSV of values, phase labels, and detected extrema."""
    ys = [float(v) for v in y]
    kinds = {e.index: e for e in report.extrema}
    phases = (None, *report.phase_labels, None)  # the end points have no phase
    rows = []
    for t, value in enumerate(ys):
        e = kinds.get(t)
        rows.append((t, quarters[t] if quarters is not None else None, value, phases[t],
                     e.kind if e else None, e.amplitude if e else None))
    return csv_text(("index", "quarter", "value", "phase", "extremum_kind", "amplitude"), rows)
