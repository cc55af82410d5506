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
Comparisons are exact by default; an epsilon can be supplied for noisy
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EstimationError
from .series import Quarter
from .sums import fsum

KIND_MAX = "maximum"
KIND_MIN = "minimum"
KIND_STEADY = "steady"

PHASES = ("P1", "P2", "P3", "P4", "max", "min", "steady")


@dataclass(frozen=True)
class Extremum:
    index: int
    kind: str
    value: float
    amplitude: float  # absolute deviation from the series mean
    quarter: Quarter | None = None


@dataclass(frozen=True)
class CycleReport:
    extrema: tuple[Extremum, ...]
    series_mean: float
    series_se: float
    peak_amplitude_mean: float | None
    peak_amplitude_se: float | None
    frequency: float | None  # cycles per year
    period: float | None  # years
    phase_labels: tuple[str, ...]  # one per interior point


def find_extrema(
    y: Sequence[float],
    quarters: Sequence[Quarter] | None = None,
    eps: float = 0.0,
) -> list[Extremum]:
    """Classify interior points as maximum, minimum, or steady.

    Endpoints are never classified; interior points that are strictly
    monotone through yield no entry.
    """
    ys = [float(v) for v in y]
    if len(ys) < 3:
        raise EstimationError(f"need at least 3 points, got {len(ys)}")
    if quarters is not None and len(quarters) != len(ys):
        raise EstimationError("quarters must align with the values")
    mean = fsum(ys) / len(ys)
    out = []
    for t in range(1, len(ys) - 1):
        left, mid, right = ys[t - 1], ys[t], ys[t + 1]
        if abs(mid - left) <= eps or abs(mid - right) <= eps:
            kind = KIND_STEADY
        elif mid > left and mid > right:
            kind = KIND_MAX
        elif mid < left and mid < right:
            kind = KIND_MIN
        else:
            continue
        out.append(
            Extremum(
                index=t,
                kind=kind,
                value=mid,
                amplitude=abs(mid - mean),
                quarter=quarters[t] if quarters is not None else None,
            )
        )
    return out


def phase_labels(y: Sequence[float], eps: float = 0.0) -> list[str]:
    """Phase tag for every interior point, in order.

    Pointwise extrema and plateaus are labeled first (max, min, steady,
    matching ``find_extrema``); the remaining points get their directed
    phase from the difference sign pairs, with zero curvature as steady.
    """
    ys = [float(v) for v in y]
    if len(ys) < 3:
        raise EstimationError(f"need at least 3 points, got {len(ys)}")
    labels = []
    for t in range(1, len(ys) - 1):
        left, mid, right = ys[t - 1], ys[t], ys[t + 1]
        if abs(mid - left) <= eps or abs(mid - right) <= eps:
            labels.append("steady")
            continue
        if mid > left and mid > right:
            labels.append("max")
            continue
        if mid < left and mid < right:
            labels.append("min")
            continue
        d1 = right - left
        d2 = right - 2.0 * mid + left
        if abs(d2) <= eps or abs(d1) <= eps:
            labels.append("steady")
        elif d1 > 0.0:
            labels.append("P1" if d2 > 0.0 else "P2")
        else:
            labels.append("P3" if d2 < 0.0 else "P4")
    return labels


def _standard_error(values: list[float], mean: float) -> float:
    """Sample standard deviation (n - 1 denominator) over sqrt(n).

    A squared deviation beyond the float range is inf, which the JSON
    writers reject.
    """
    n = len(values)
    var = fsum((v - mean) * (v - mean) for v in values) / (n - 1)
    return math.sqrt(var) / math.sqrt(n)


def _mean_se(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    mean = fsum(values) / len(values)
    if len(values) < 2:
        return mean, None
    return mean, _standard_error(values, mean)


def cycle_stats(
    y: Sequence[float],
    quarters_per_year: int = 4,
    quarters: Sequence[Quarter] | None = None,
    eps: float = 0.0,
) -> CycleReport:
    """Full cycle report of a series.

    The period is the mean index distance between consecutive extrema of
    the same kind, converted to years; frequency is its reciprocal. With
    no same-kind pair both are reported absent, never silently zero.
    """
    ys = [float(v) for v in y]
    extrema = find_extrema(ys, quarters=quarters, eps=eps)
    series_mean, series_se = _mean_se(ys)

    strict = [e for e in extrema if e.kind != KIND_STEADY]
    amp_mean, amp_se = _mean_se([e.amplitude for e in strict])

    gaps: list[int] = []
    for kind in (KIND_MAX, KIND_MIN):
        idx = [e.index for e in strict if e.kind == kind]
        gaps.extend(b - a for a, b in zip(idx, idx[1:]))
    if gaps:
        period_years = sum(gaps) / len(gaps) / quarters_per_year
        frequency = 1.0 / period_years
    else:
        period_years = None
        frequency = None

    return CycleReport(
        extrema=tuple(extrema),
        series_mean=series_mean,
        series_se=series_se,
        peak_amplitude_mean=amp_mean,
        peak_amplitude_se=amp_se,
        frequency=frequency,
        period=period_years,
        phase_labels=tuple(phase_labels(ys, eps=eps)),
    )


def to_json(report: CycleReport) -> dict:
    return {
        "series_mean": report.series_mean,
        "series_se": report.series_se,
        "peak_amplitude_mean": report.peak_amplitude_mean,
        "peak_amplitude_se": report.peak_amplitude_se,
        "frequency_cycles_per_year": report.frequency,
        "period_years": report.period,
        "extrema": [
            {
                "index": e.index,
                "quarter": str(e.quarter) if e.quarter is not None else None,
                "kind": e.kind,
                "value": e.value,
                "amplitude": e.amplitude,
            }
            for e in report.extrema
        ],
        "phase_labels": list(report.phase_labels),
    }


def overlays_to_csv(report: CycleReport, y: Sequence[float],
                    quarters: Sequence[Quarter] | None = None) -> str:
    """Per-point CSV of values, phase labels, and detected extrema."""
    ys = [float(v) for v in y]
    kinds = {e.index: e for e in report.extrema}
    lines = ["index,quarter,value,phase,extremum_kind,amplitude"]
    for t in range(len(ys)):
        quarter = str(quarters[t]) if quarters is not None else ""
        phase = report.phase_labels[t - 1] if 1 <= t <= len(ys) - 2 else ""
        e = kinds.get(t)
        kind = e.kind if e else ""
        amp = repr(e.amplitude) if e else ""
        lines.append(f"{t},{quarter},{ys[t]!r},{phase},{kind},{amp}")
    return "\n".join(lines) + "\n"
