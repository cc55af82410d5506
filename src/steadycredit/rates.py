"""Per-interval default rates and credit-growth rates.

For interval k (ending at quarter k of the series, k >= 1):

    d_k = abd_k / tcu_{k-1}
    f_k = loans_k / (tcu_{k-1} * (1 - d_k))            loans formula
    f_k = tcu_k / (tcu_{k-1} * (1 - d_k)) - 1          balance identity

The (1 - d_k) survival factor in the denominator encodes the
perfect-information assumption: new credit is not extended to borrowers
already known to default within the interval. The paper's sliding
retrospection parameter is zero: each rate uses the stock of the quarter
just before its interval, and no other lag is offered.
``window_rates`` cuts a window with ``CreditSeries.slice`` and rates the
cut: the one rate sample of a window, taken by ``analyze`` and every CLI
view of the analysis. ``select_window`` is the public rule that sample
keeps: the points of a rate series whose interval ends inside the window.
``f_mode``, one of ``F_MODES``, names the f formula; ``credit_growth_rates`` alone
reads it, and ``window_rates``, ``outside_window`` and ``analyze`` pass it on. It
was the one field of the former ``RatesConfig`` record.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EstimationError, InvariantError, WindowError
from .series import CreditSeries, Quarter, Window, number, typed, validated

F_SOURCE_LOANS = "loans-formula"
F_SOURCE_BALANCE = "balance-identity"

MODE_PREFER_LOANS = "prefer-loans"
MODE_FORCE_BALANCE = "force-balance-identity"
F_MODES = (MODE_PREFER_LOANS, MODE_FORCE_BALANCE)


@validated
class RatePoint(NamedTuple):
    interval_end: Quarter
    d: float
    f: float
    f_source: str

    def _checked(self):
        typed("interval_end", self.interval_end, Quarter)
        number("d", self.d, self.interval_end)
        number("f", self.f, self.interval_end)
        if not 0.0 <= self.d < 1.0:
            raise InvariantError(f"{self.interval_end}: d must be in [0,1), got {self.d}")
        if not self.f > -1.0:
            raise InvariantError(f"{self.interval_end}: f must be > -1, got {self.f}")
        if self.f_source not in (F_SOURCE_LOANS, F_SOURCE_BALANCE):
            raise InvariantError(f"unknown f_source {self.f_source!r}")
        return self


@validated
class RateSeries(NamedTuple):
    """Ordered (d, f) sample over contiguous interval-end quarters."""

    points: tuple[RatePoint, ...]

    def _checked(self):
        pts = self.points
        if type(pts) is not tuple:
            return RateSeries(tuple(pts))
        if not pts:
            raise InvariantError("rate series must not be empty")
        base = pts[0].interval_end.index
        for i, p in enumerate(pts):
            if p.interval_end.index != base + i:
                raise InvariantError(
                    f"rate points must be contiguous, broken at {p.interval_end}"
                )
        return self

    def __len__(self) -> int:
        return len(self.points)

    def d_values(self) -> list[float]:
        return [p.d for p in self.points]

    def f_values(self) -> list[float]:
        return [p.f for p in self.points]


def credit_growth_rates(series: CreditSeries, f_mode: str = MODE_PREFER_LOANS) -> RateSeries:
    """Per-interval (d, f) pairs, tagging each point with the f formula used.

    Under ``prefer-loans`` the loans formula is used wherever the loans
    column is present and the balance identity elsewhere;
    ``force-balance-identity`` uses the identity throughout.
    """
    typed("series", series, CreditSeries)
    if f_mode not in F_MODES:
        raise InvariantError(f"unknown f_mode {f_mode!r}")
    points = []
    for prev, cur in zip(series.observations, series.observations[1:]):
        d = cur.abd / prev.tcu
        surviving = prev.tcu * (1.0 - d)
        if surviving <= 0.0:
            raise EstimationError(f"{cur.quarter}: surviving credit base is not positive")
        if f_mode == MODE_PREFER_LOANS and cur.loans is not None:
            f = cur.loans / surviving
            source = F_SOURCE_LOANS
        else:
            f = cur.tcu / surviving - 1.0
            source = F_SOURCE_BALANCE
        points.append(RatePoint(cur.quarter, d, f, source))
    # one point per interval of a checked series is a contiguous sample
    return tuple.__new__(RateSeries, (tuple(points),))


def select_window(rates: RateSeries, window: Window) -> RateSeries:
    """Rate points whose interval ends inside the window.

    An interval ending at the window's first quarter uses the preceding
    quarter's credit stock as denominator, so a window of n quarters drawn
    from a longer series yields an n-point sample.
    """
    typed("rates", rates, RateSeries)
    typed("window", window, Window)
    points = rates.points
    kept = points[window.positions(points[0].interval_end.index)]
    if not kept:
        raise WindowError(f"window {window} selects no rate points")
    return RateSeries(kept)


def window_rates(series: CreditSeries, window: Window,
                 f_mode: str = MODE_PREFER_LOANS) -> tuple[CreditSeries, RateSeries]:
    """The cut ``series.slice(window)`` and its rate sample: one point per cut
    quarter, the first rated against the series' look-back quarter before it
    (none at the series' start), so every point ends inside the window."""
    typed("series", series, CreditSeries)
    typed("window", window, Window)
    cut = series.slice(window)
    start = cut.first_quarter.index - series.first_quarter.index
    # rate point k spans observations k and k + 1 ([-1:0] is empty at the series'
    # start); a contiguous run of a checked series is valid as it is
    rated = tuple.__new__(CreditSeries, (series.observations[start - 1:start] + cut.observations,))
    return cut, credit_growth_rates(rated, f_mode)


def outside_window(series: CreditSeries, window: Window,
                   f_mode: str = MODE_PREFER_LOANS) -> tuple[RatePoint, ...]:
    """The series' rate points whose interval ends outside the window."""
    typed("series", series, CreditSeries)
    typed("window", window, Window)
    cut = window.positions(series.first_quarter.index + 1)  # the first point's end
    points = credit_growth_rates(series, f_mode).points
    return points[:cut.start] + points[cut.stop:]
