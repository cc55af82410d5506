"""Published reference statistics for the Italian credit-register series.

The underlying Banca d'Italia TDB30486 quarterly series (total credit used
by non-financial corporations) is not redistributable, so the headline
statistics of its two canonical analysis windows are shipped here as
documentation constants. They are not a runnable fixture; the test suite
uses them only for data-free internal-consistency checks (for example that
the printed correlation squares to the printed R2 and that the two
residual scales differ by sqrt(n/(n-1))).

Dating note: the published table heads its second column "June 2008 -
March 2012", while the accompanying sample size (n=17 quarterly intervals,
dof=16) only fits a window running through June 2012. These constants use
the 2012-Q2 reading.
"""

from __future__ import annotations

PRE_CRISIS_WINDOW = {
    "window": {"from": "1996-Q1", "to": "2008-Q2", "from_inclusive": True,
               "to_inclusive": False},
    "ols": {
        "n": 49,
        "intercept": 0.0144,
        "sigma_intercept": 0.0086,
        "x_intercept": -0.0063,
        "slope": 2.2931,
        "sigma_slope": 1.6061,
        "correlation": 0.20817,
        "r2": 0.04334,
        "sigma": 0.024549,
        "s_for_residual": 0.024809,
    },
    "ssf": {
        "n": 49,
        "zeta": 0.020584,
        "sigma": 0.024715,
        "s_for_residual": 0.024976,
        "chi2": 106.66,
        "dof": 48,
    },
}

CRISIS_WINDOW = {
    "window": {"from": "2008-Q2", "to": "2012-Q2", "from_inclusive": True,
               "to_inclusive": True},
    "ols": {
        "n": 17,
        "intercept": 0.040187,
        "sigma_intercept": 0.0092139,
        "x_intercept": 0.0072893,
        "slope": -5.5131,
        "sigma_slope": 1.5443,
        "correlation": -0.69032,
        "r2": 0.47654,
        "sigma": 0.0084582,
        "s_for_residual": 0.0087185,
    },
    "ssf": {
        "n": 17,
        "zeta": 0.00245,
        "sigma": 0.01276,
        "s_for_residual": 0.013152,
        "chi2": 37.47,
        "dof": 16,
    },
}

CREDIT_STOCK_CYCLES = {
    # crisis-window cycle statistics of the nominal credit stock, euros
    "frequency_cycles_per_year": 0.5,
    "peak_amplitude_mean": 39.2e9,
    "peak_amplitude_se": 2.83e9,
    "series_mean": 915.4e9,
    "series_se": 3.59e9,
}

REFERENCE = {
    "source": "Banca d'Italia, Statistical Bulletin, TDB30486; ISTAT",
    "note": "documentation constants; the raw quarterly series is not shipped",
    "pre_crisis_window": PRE_CRISIS_WINDOW,
    "crisis_window": CRISIS_WINDOW,
    "credit_stock_cycles": CREDIT_STOCK_CYCLES,
}
