"""Assemble the two-window analysis into JSON and SVG outputs.

``analyze`` composes the rate, regression, steady-state, cycle, and gap
computations over one window of a series; every sub-result is derived
from the window's one cut and its rate sample, which ``rates.window_rates``
returns together; its ``CreditSeries.slice`` refuses a bad window. Component
failures (for example a regression on fewer than three points) are
collected per stage instead of aborting the whole report, which holds
results only.
``render_svg`` draws a report through ``steadycredit.svg``, loaded only then.

``dump_json`` writes every JSON document of the package in one walk. A
result record is a named tuple whose fields are named like the published
table rows, so it is written as an object of its fields in field order; a
``Quarter`` is written as its text and a plain tuple as an array. It
rounds each float to ``STEADYCREDIT_PRECISION`` significant digits
(default 6), so repeated runs emit byte-identical documents, and refuses a
float that is non-finite after rounding, naming its key path. A float is
written as the ``repr`` of its rounded value; at 15 digits or fewer a
fixed-notation rounding is that ``repr`` already, or an integer text one
``.0`` short of it. An array of one scalar type or of records of one class
is written by columns, each record one fill of its class's row template.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

from . import cycles as cycles_mod
from . import ols as ols_mod
from . import steady_state
from .basel import GapConfig, GapReport, credit_gap
from .errors import SteadyCreditError
from .rates import MODE_PREFER_LOANS, RatePoint, RateSeries, window_rates
from .series import CreditSeries, Quarter, Window, number_text, typed

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
    trajectory: tuple[steady_state.TrajectoryPoint, ...] | None
    rates_in: RateSeries
    errors: tuple[tuple[str, str], ...]


def analyze(
    series: CreditSeries,
    window: Window | None = None,
    f_mode: str = MODE_PREFER_LOANS,
    gap_cfg: GapConfig = GapConfig(),
    sigma_ref: float | None = None,
) -> AnalysisReport:
    """Run the full pipeline over one window of the series.

    ``window_rates`` cuts the series once, checking the window before any
    stage runs, and every stage takes that cut or its rate sample. Rate
    intervals are selected by their end quarter, so a window starting after
    the first series quarter gains one look-back interval and an n-quarter
    window carries an n-point sample, one point per cut quarter. Unless
    ``sigma_ref`` is given, a positive OLS ``s_for_residual`` is the
    chi-squared reference of both steady-state estimators, so OLS is fit
    once; otherwise each estimator picks its default scale itself.
    """
    typed("series", series, CreditSeries)
    typed("gap_cfg", gap_cfg, GapConfig)
    if window is None:
        window = Window(series.first_quarter, series.last_quarter)
    sliced, rates_in = window_rates(series, window, f_mode)

    errors: list[tuple[str, str]] = []

    def stage(name, fn, *args, **kwargs):
        # a stage that fails, series.finite's refusal included, is recorded, its result absent
        try:
            return fn(*args, **kwargs)
        except SteadyCreditError as exc:
            errors.append((name, str(exc)))
            return None

    ols_fit = stage("ols", ols_mod.fit, rates_in.d_values(), rates_in.f_values())
    # A positive OLS scale spares the estimators a refit; any other case is left
    # to the default-scale rule of steady_state._finalize.
    if sigma_ref is None and ols_fit is not None and ols_fit.s_for_residual > 0.0:
        sigma_ref = ols_fit.s_for_residual
    ssp_ls = stage("ssp-least-squares", steady_state.ssp_least_squares,
                   rates_in, sigma_ref=sigma_ref)
    ssp_irr = stage("ssp-irr-root", steady_state.ssp_irr_root,
                    rates_in, sigma_ref=sigma_ref)
    cycle_report = stage("cycles", cycles_mod.cycle_stats,
                         sliced.tcu_values(), sliced.quarters())
    gap_report = stage("gap", credit_gap, sliced, gap_cfg) if sliced.has_gdp() else None

    if ssp_ls is None:
        errors.append(("trajectory", "no steady-state estimate available"))
    traj = stage("trajectory", steady_state.trajectory, rates_in, ssp_ls.zeta) if ssp_ls else None

    return AnalysisReport(window, len(rates_in), ols_fit, ssp_ls, ssp_irr, cycle_report,
                          gap_report, traj, rates_in, tuple(errors))


def resolve_precision() -> int:
    raw = os.environ.get(PRECISION_ENV, str(DEFAULT_PRECISION))
    try:
        value = int(number_text(raw))
    except ValueError:
        raise SteadyCreditError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise SteadyCreditError(f"{PRECISION_ENV} must be >= 1, got {value}")
    # 17 significant digits name every double, so more write the same bytes
    return min(value, 17)


def to_json_dict(report: AnalysisReport) -> dict:
    """The report as a document for ``dump_json``, its records as they are."""
    typed("report", report, AnalysisReport)
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
        "trajectory": report.trajectory,
        "errors": [{"stage": stage, "message": message} for stage, message in report.errors],
    }


class _NonFinite(Exception):
    """A float ``_write`` cannot write; ``args`` is its key path."""


def _texts(values, indent: str, spec: str, short: bool) -> list[str] | None:
    """The texts of values of one scalar type, or of records of one class, written at
    ``indent``, each field in one pass; None if the item walk must write them."""
    kinds = set(map(type, values))
    if kinds <= {str, type(None)}:
        return ["null" if value is None else _quote(value) for value in values]
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        joined = ("%" + spec + " ") * len(values) % tuple(values)  # one call, space-separated
        texts = joined.split()
        if short and "e" not in joined and "n" not in joined:
            # fixed notation: the repr, or an integer text ("0", "-0") one ".0" short of it
            return texts if joined.count(".") == len(texts) else [
                text if "." in text else text + ".0" for text in texts]
        texts = [*map(repr, map(float, texts))]
        return None if "n" in "".join(texts) else texts  # past the float range
    if kind is int or kind is Quarter:
        return [*map(repr if kind is int else '"%d-Q%d"'.__mod__, values)]
    if not (getattr(kind, "_fields", ()) and issubclass(kind, tuple)):
        return None
    columns = [_texts(column, indent + "  ", spec, short) for column in zip(*values)]
    row = "{" + ",".join(f"\n  {indent}{_quote(field)}: %s" for field in kind._fields) + f"\n{indent}}}"
    return None if None in columns else [*map(row.__mod__, zip(*columns))]


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
    elif (kind is list or kind is tuple) and value and (
            texts := _texts(value, indent + "  ", spec, short)) is not None:
        # an array of one scalar type or of one record class is written by columns
        parts.append("[\n  " + indent + (",\n  " + indent).join(texts) + "\n" + indent + "]")
    elif kind is dict or kind is list or isinstance(value, tuple) and (
            kind is tuple or hasattr(kind, "_fields")):
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


def render_svg(report: AnalysisReport, kind: str, rates_out: tuple[RatePoint, ...] = ()) -> str:
    """Render the report as an SVG 1.1 document.

    ``exhibit1`` is the time panel of observed f, d, and expected f;
    ``exhibit2`` is the (d, f) scatter with the steady-state curve, filled
    in-window markers, hollow markers for ``rates_out`` (the series' points
    ``rates.outside_window``), and segments stroked by rising or falling growth.
    Either kind refuses a ``rates_out`` that is not a tuple of ``RatePoint``.
    """
    typed("report", report, AnalysisReport)
    typed("rates_out", rates_out, tuple)
    for i, point in enumerate(rates_out):
        typed(f"rate point at index {i}", point, RatePoint)
    from . import svg  # loaded here only, so that analyze never imports it
    if kind == KIND_SCATTER:
        return svg.scatter(report, rates_out)
    if kind == KIND_TIME_PANEL:
        return svg.time_panel(report)
    raise SteadyCreditError(f"unknown rendering kind {kind!r}")
