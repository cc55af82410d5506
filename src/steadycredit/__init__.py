"""Quarterly credit-register analytics.

From a quarterly series of total credit used, adjusted bad debt, and
loans disbursed, the package derives default and credit-growth rates,
fits the growth-versus-default regression, estimates the steady-state
parameter two ways with a chi-squared fluctuation test, characterizes
cyclical swings of the credit stock, and computes the HP-filtered
credit-to-GDP gap with its countercyclical buffer mapping.
"""

from .basel import GapConfig, GapReport, buffer_add_on, credit_gap, hp_filter
from .cycles import CycleReport, Extremum, cycle_stats
from .errors import (
    ColumnAbsentError,
    ContiguityError,
    EstimationError,
    InvariantError,
    ParseError,
    SteadyCreditError,
    WindowError,
)
from .ols import OlsFit, fit
from .rates import RatePoint, RateSeries, credit_growth_rates, select_window
from .report import AnalysisReport, analyze, render_svg, to_json
from .series import (
    CreditObservation,
    CreditSeries,
    Quarter,
    Window,
    emit_csv,
    parse_csv,
)
from .steady_state import (
    SspEstimate,
    chi2_p_value,
    expected_growth,
    ssp_irr_root,
    ssp_least_squares,
    trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ColumnAbsentError",
    "ContiguityError",
    "CreditObservation",
    "CreditSeries",
    "CycleReport",
    "EstimationError",
    "Extremum",
    "GapConfig",
    "GapReport",
    "InvariantError",
    "OlsFit",
    "ParseError",
    "Quarter",
    "RatePoint",
    "RateSeries",
    "Scenario",
    "SspEstimate",
    "SteadyCreditError",
    "Window",
    "WindowError",
    "analyze",
    "buffer_add_on",
    "chi2_p_value",
    "credit_gap",
    "credit_growth_rates",
    "cycle_stats",
    "emit_csv",
    "expected_growth",
    "fit",
    "generate",
    "hp_filter",
    "parse_csv",
    "parse_scenario",
    "render_svg",
    "select_window",
    "ssp_irr_root",
    "ssp_least_squares",
    "to_json",
    "trajectory",
]


def __getattr__(name: str):  # the simulator loads on first use, and analysis never uses it
    if name not in ("Scenario", "generate", "parse_scenario"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import synth
    return getattr(synth, name)
