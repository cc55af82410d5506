"""Assemble the two-window analysis into JSON and SVG outputs.

``analyze`` composes the rate, regression, steady-state, cycle, and gap
computations over one window of a series; every sub-result is derived
from the window's ``CreditSeries.slice``, which refuses a bad window, and
the rate sample ``rates.window_rates`` takes from it. Component failures
(for example a regression on fewer than three points) are collected per
stage instead of aborting the whole report.

``dump_json`` writes every JSON document of the package in one walk. A
result record is a named tuple whose fields are named like the published
table rows, so it is written as an object of its fields in field order; a
``Quarter`` is written as its text and a plain tuple as an array. It
rounds each float to ``STEADYCREDIT_PRECISION`` significant digits
(default 6), so repeated runs emit byte-identical documents, and refuses a
float that is non-finite after rounding, naming its key path. A float is
written as the ``repr`` of its rounded value; at 15 digits or fewer a
fixed-notation rounding is that ``repr`` already and is written as it is.
"""

from __future__ import annotations

import math
import os
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from . import cycles as cycles_mod
from . import ols as ols_mod
from . import steady_state
from .basel import GapConfig, GapReport, credit_gap
from .errors import SteadyCreditError
from .rates import RatePoint, RateSeries, RatesConfig, credit_growth_rates, window_rates
from .series import CreditSeries, Quarter, Window

DEFAULT_PRECISION = 6
PRECISION_ENV = "STEADYCREDIT_PRECISION"

KIND_TIME_PANEL = "exhibit1"
KIND_SCATTER = "exhibit2"


class AnalysisReport(NamedTuple):
    window: Window
    n: int
    ols_fit: ols_mod.OlsFit | None
    ssp_ls: steady_state.SspEstimate | None
    ssp_irr: steady_state.SspEstimate | None
    cycles: cycles_mod.CycleReport | None
    gap: GapReport | None
    trajectory: steady_state.SteadyStateTrajectory | None
    rates_in: RateSeries
    series: CreditSeries
    rates_cfg: RatesConfig
    errors: tuple[tuple[str, str], ...]

    @property
    def rates_out(self) -> tuple[RatePoint, ...]:
        """The series' rate points outside the window, computed on demand."""
        if len(self.rates_in) == len(self.series) - 1:
            return ()
        full = credit_growth_rates(self.series, self.rates_cfg).points
        cut = self.window.positions(full[0].interval_end.index)
        return full[:cut.start] + full[cut.stop:]


def analyze(
    series: CreditSeries,
    window: Window | None = None,
    rates_cfg: RatesConfig = RatesConfig(),
    gap_cfg: GapConfig = GapConfig(),
    sigma_ref: float | None = None,
) -> AnalysisReport:
    """Run the full pipeline over one window of the series.

    ``series.slice`` checks the window before any stage runs. Rate intervals
    are selected by their end quarter, so a window starting after the first
    series quarter gains one look-back interval and an n-quarter window
    carries an n-point sample; ``window_rates`` computes them over the
    window's quarters and that look-back quarter only. OLS is fit once;
    unless ``sigma_ref`` is given, its ``s_for_residual`` is the chi-squared
    reference of both steady-state estimators.
    """
    if window is None:
        window = Window(series.first_quarter, series.last_quarter)
    sliced = series.slice(window)
    rates_in = window_rates(series, window, rates_cfg)

    errors: list[tuple[str, str]] = []

    def stage(name, fn, *args, **kwargs):
        # a failing stage is recorded and leaves its result absent
        try:
            return fn(*args, **kwargs)
        except SteadyCreditError as exc:
            errors.append((name, str(exc)))
            return None

    ols_fit = stage("ols", ols_mod.fit, rates_in.d_values(), rates_in.f_values())
    # Pass on only a positive OLS scale; a zero one is left to the estimators,
    # which accept it for an exact steady-state fit and reject it otherwise.
    if sigma_ref is None and ols_fit is not None and ols_fit.s_for_residual > 0.0:
        sigma_ref = ols_fit.s_for_residual
    ssp_ls = stage("ssp-least-squares", steady_state.ssp_least_squares,
                   rates_in, sigma_ref=sigma_ref)
    ssp_irr = stage("ssp-irr-root", steady_state.ssp_irr_root,
                    rates_in, sigma_ref=sigma_ref)
    cycle_report = stage("cycles", cycles_mod.cycle_stats,
                         sliced.tcu_values(), sliced.quarters())
    gap_report = stage("gap", credit_gap, sliced, gap_cfg) if sliced.has_gdp() else None

    traj = None
    if ssp_ls is not None:
        traj = steady_state.trajectory(rates_in, ssp_ls.zeta)
    else:
        errors.append(("trajectory", "no steady-state estimate available"))

    return AnalysisReport(window, len(rates_in), ols_fit, ssp_ls, ssp_irr, cycle_report,
                          gap_report, traj, rates_in, series, rates_cfg, tuple(errors))


def resolve_precision() -> int:
    raw = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION))
    try:
        value = int(raw)
    except ValueError:
        raise SteadyCreditError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise SteadyCreditError(f"{PRECISION_ENV} must be >= 1, got {value}")
    return value


def to_json_dict(report: AnalysisReport) -> dict:
    """The report as a document for ``dump_json``, its records as they are."""
    return {
        "schema": "steadycredit-analysis/1",
        "window": {
            "from": str(report.window.start),
            "to": str(report.window.end),
            "from_inclusive": report.window.start_inclusive,
            "to_inclusive": report.window.end_inclusive,
        },
        "n": report.n,
        "ols": report.ols_fit,
        "ssf": {"least_squares": report.ssp_ls, "irr_root": report.ssp_irr},
        "cycles": report.cycles,
        "gap": {
            "lambda": report.gap.config.lam,
            "gap_low": report.gap.config.gap_low,
            "gap_high": report.gap.config.gap_high,
            "buffer_max": report.gap.config.buffer_max,
            "rows": report.gap.rows,
        }
        if report.gap
        else None,
        "trajectory": report.trajectory.points if report.trajectory else None,
        "errors": [{"stage": stage, "message": message} for stage, message in report.errors],
    }


class _NonFinite(Exception):
    """A float ``_write`` cannot write; ``args`` is its key path."""


def _write(value, indent: str, spec: str, short: bool, parts: list[str]) -> None:
    """Append the JSON text of ``value``, nested at ``indent``, to ``parts``."""
    kind = type(value)
    if kind is float:
        text = format(value, spec)
        # with short (<= 15 digits) a fixed-notation text is the float's repr
        if not (short and "." in text and "e" not in text):
            value = float(text)
            if not math.isfinite(value):
                raise _NonFinite()
            text = repr(value)
        parts.append(text)
    elif kind is Quarter:
        parts.append(f'"{value}"')
    elif kind is dict or kind is list or isinstance(value, tuple):
        if kind is dict:
            items, brackets = value.items(), "{}"
        elif kind is list or kind is tuple:
            items, brackets = enumerate(value), "[]"
        else:  # a named tuple is a record, written as an object of its fields
            items, brackets = zip(kind._fields, value), "{}"
        is_object, inner = brackets == "{}", indent + "  "
        sep = brackets[0] + "\n" + inner
        for key, item in items:
            parts.append(sep + _quote(key) + ": " if is_object else sep)
            try:
                _write(item, inner, spec, short, parts)
            except _NonFinite as exc:
                raise _NonFinite(key, *exc.args) from None
            sep = ",\n" + inner
        parts.append("\n" + indent + brackets[1] if value else brackets)
    elif kind is str or isinstance(value, str):
        parts.append(_quote(value))
    elif kind is int:
        parts.append(repr(value))
    elif value is None or kind is bool:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, float):  # a subclass, such as numpy.float64
        _write(float(value), indent, spec, short, parts)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def dump_json(doc) -> str:
    """Serialize a JSON-able document as two-space-indented ASCII JSON."""
    digits = resolve_precision()
    parts: list[str] = []
    try:
        _write(doc, "", f".{digits}g", digits <= 15, parts)
    except _NonFinite as exc:
        path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in exc.args)
        raise SteadyCreditError("result holds a non-finite number, which JSON cannot "
                                f"represent: {path.removeprefix('.') or 'the document'}") from None
    return "".join(parts) + "\n"


def to_json(report: AnalysisReport) -> str:
    return dump_json(to_json_dict(report))


# --- SVG rendering ---------------------------------------------------------

_WIDTH, _HEIGHT = 720.0, 540.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80.0, 24.0, 32.0, 56.0

_STYLE = (
    "text{font-family:sans-serif;font-size:12px;fill:#222}"
    ".axis{stroke:#222;stroke-width:1;fill:none}"
    ".tick{stroke:#222;stroke-width:1}"
    ".ssf{stroke:#000;stroke-width:1.5;fill:none}"
    ".rising{stroke:#1f77b4;stroke-width:1;fill:none}"
    ".falling{stroke:#d62728;stroke-width:1;fill:none}"
    ".flat{stroke:#999;stroke-width:1;fill:none}"
    ".obs-in{fill:#1f77b4;stroke:none}"
    ".obs-out{fill:none;stroke:#888;stroke-width:1}"
    ".observed-f{stroke:#1f77b4;stroke-width:1.5;fill:none}"
    ".default-d{stroke:#d62728;stroke-width:1.5;fill:none}"
    ".expected-f{stroke:#000;stroke-width:1.5;stroke-dasharray:4 3;fill:none}"
)


class _Scale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            pad = abs(lo) if lo != 0.0 else 1.0
            lo, hi = lo - 0.5 * pad, hi + 0.5 * pad
        span = hi - lo
        lo -= 0.05 * span
        hi += 0.05 * span
        self.lo, self.hi = lo, hi
        self.out_lo, self.out_hi = out_lo, out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)

    def ticks(self, count: int = 5) -> list[float]:
        step = (self.hi - self.lo) / (count - 1)
        return [self.lo + i * step for i in range(count)]


def _px(v: float) -> str:
    return f"{v:.2f}"


def _axes(sx: _Scale, sy: _Scale, x_label: str, y_label: str) -> list[str]:
    parts = []
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    parts.append(f'<line class="axis" x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x1)}" y2="{_px(y0)}"/>')
    parts.append(f'<line class="axis" x1="{_px(x0)}" y1="{_px(y0)}" x2="{_px(x0)}" y2="{_px(y1)}"/>')
    for tick in sx.ticks():
        px = sx(tick)
        parts.append(f'<line class="tick" x1="{_px(px)}" y1="{_px(y0)}" x2="{_px(px)}" y2="{_px(y0 + 5)}"/>')
        parts.append(f'<text x="{_px(px)}" y="{_px(y0 + 18)}" text-anchor="middle">{tick:.6g}</text>')
    for tick in sy.ticks():
        py = sy(tick)
        parts.append(f'<line class="tick" x1="{_px(x0 - 5)}" y1="{_px(py)}" x2="{_px(x0)}" y2="{_px(py)}"/>')
        parts.append(f'<text x="{_px(x0 - 8)}" y="{_px(py + 4)}" text-anchor="end">{tick:.6g}</text>')
    parts.append(
        f'<text x="{_px((x0 + x1) / 2)}" y="{_px(_HEIGHT - 16)}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_px((y0 + y1) / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_px((y0 + y1) / 2)})">{y_label}</text>'
    )
    return parts


def _document(title: str, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">\n'
        f"<style>{_STYLE}</style>\n"
        f'<text x="{_px(_WIDTH / 2)}" y="20" text-anchor="middle">{title}</text>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _render_scatter(report: AnalysisReport) -> str:
    if report.ssp_ls is None:
        raise SteadyCreditError("scatter rendering needs a steady-state estimate")
    zeta = report.ssp_ls.zeta
    pts_in = list(report.rates_in.points)
    pts_out = list(report.rates_out)
    d_all = [p.d for p in pts_in + pts_out]
    d_hi = max(d_all)
    curve_d = [d_hi * i / 100.0 for i in range(101)]
    curve_f = [steady_state.expected_growth(d, zeta) for d in curve_d]
    f_all = [p.f for p in pts_in + pts_out] + curve_f

    sx = _Scale(0.0, d_hi, _MARGIN_L, _WIDTH - _MARGIN_R)
    sy = _Scale(min(f_all), max(f_all), _HEIGHT - _MARGIN_B, _MARGIN_T)

    body = _axes(sx, sy, "default rate d", "credit growth rate f")
    curve = " ".join(f"{_px(sx(d))},{_px(sy(f))}" for d, f in zip(curve_d, curve_f))
    body.append(f'<polyline class="ssf" points="{curve}"/>')

    # each segment is stroked by the direction the trajectory recorded at its end
    directions = [p.direction for p in report.trajectory.points[1:]]
    for prev, cur, cls in zip(pts_in, pts_in[1:], directions):
        body.append(
            f'<line class="{cls}" x1="{_px(sx(prev.d))}" y1="{_px(sy(prev.f))}" '
            f'x2="{_px(sx(cur.d))}" y2="{_px(sy(cur.f))}"/>'
        )
    for p in pts_out:
        body.append(f'<circle class="obs-out" cx="{_px(sx(p.d))}" cy="{_px(sy(p.f))}" r="4"/>')
    for p in pts_in:
        body.append(f'<circle class="obs-in" cx="{_px(sx(p.d))}" cy="{_px(sy(p.f))}" r="3.5"/>')
    title = f"Growth vs default rate, window {report.window}, zeta={zeta:.6g}"
    return _document(title, body)


def _render_time_panel(report: AnalysisReport) -> str:
    if report.trajectory is None:
        raise SteadyCreditError("time panel rendering needs a trajectory")
    pts = report.rates_in.points
    traj = report.trajectory.points
    n = len(pts)
    xs = list(range(n))
    series_map = {
        "observed-f": [p.f_observed for p in traj],
        "default-d": [p.d for p in pts],
        "expected-f": [p.f_expected for p in traj],
    }
    values = [v for vs in series_map.values() for v in vs]
    sx = _Scale(0.0, float(max(n - 1, 1)), _MARGIN_L, _WIDTH - _MARGIN_R)
    sy = _Scale(min(values), max(values), _HEIGHT - _MARGIN_B, _MARGIN_T)

    body = _axes(sx, sy, f"quarter ({pts[0].interval_end} .. {pts[-1].interval_end})", "rate")
    for cls, vs in series_map.items():
        line = " ".join(f"{_px(sx(x))},{_px(sy(v))}" for x, v in zip(xs, vs))
        body.append(f'<polyline class="{cls}" points="{line}"/>')
    legend_y = _MARGIN_T + 8
    for i, cls in enumerate(series_map):
        y = legend_y + 16 * i
        body.append(
            f'<line class="{cls}" x1="{_px(_WIDTH - 180)}" y1="{_px(y)}" '
            f'x2="{_px(_WIDTH - 150)}" y2="{_px(y)}"/>'
        )
        body.append(f'<text x="{_px(_WIDTH - 144)}" y="{_px(y + 4)}">{cls}</text>')
    title = f"Rates over time, window {report.window}"
    return _document(title, body)


def render_svg(report: AnalysisReport, kind: str) -> str:
    """Render the report as an SVG 1.1 document.

    ``exhibit1`` is the time panel of observed f, d, and expected f;
    ``exhibit2`` is the (d, f) scatter with the steady-state curve, filled
    in-window markers, hollow out-of-window markers, and interval segments
    stroked by rising or falling growth.
    """
    if kind == KIND_SCATTER:
        return _render_scatter(report)
    if kind == KIND_TIME_PANEL:
        return _render_time_panel(report)
    raise SteadyCreditError(f"unknown rendering kind {kind!r}")
