"""The published table rows, reconciled against the pipeline without the data.

The raw series behind the published tables is not redistributable, but the
printed OLS rows fix every moment of the sample the regression uses:

- ``sigma`` gives the residual sum of squares, SSR = n * sigma^2;
- the correlation gives Syy = SSR / (1 - r^2) and, with the slope,
  Sxx = r^2 * Syy / slope^2 (the correlation, not the printed R^2, which
  has fewer digits);
- ``sigma_intercept`` gives the mean default rate x_mean, and the intercept
  the mean growth rate y_mean = intercept + slope * x_mean.

The twin of a window is a sample with exactly these moments:
d = x_mean + sqrt(Sxx) * u and f = y_mean + slope * (d - x_mean) +
sqrt(SSR) * v, where u and v are the centred, normalised cosine and sine of
one period over n points. They are orthonormal and orthogonal to 1, and
every d stays positive (``RatePoint`` would refuse a negative one).
``ols.fit`` and ``ssp_least_squares`` run on the twin with the default
reference scale. A figure the conventions reproduce must lie within half a
unit of its printed last digit; for a row derived from other printed rows,
the rounding those rows carry is added. A figure they do not reproduce is
a named gap in ``GAPS``, pinned at its measured value, so that a change of
convention shows.

The twin reproduces the moments, not the sample. The least-squares zeta
weights each point by 1 / (1 - d)^2, so it depends on the order of the d
values, that is on which residual each d carries, and not only on the
moments. Residuals of another shape with the same moments move it by about
1e-8, far below the printed digits, so the zeta gaps do not come from the
twin's choice of order. The chi-squared statistic is
n * sigma^2 / sigma_ref^2 for any sample, so its gap needs no twin.
"""

import itertools
import math
from decimal import Decimal

import pytest

from conftest import published, steady_scenario
from steadycredit import ols
from steadycredit.cli import NAMED_WINDOWS
from steadycredit.rates import F_SOURCE_BALANCE, RatePoint, RateSeries
from steadycredit.report import analyze, to_json_dict
from steadycredit.series import Quarter
from steadycredit.steady_state import ssp_least_squares
from steadycredit.synth import generate

# CLI window name: section of the reference document
WINDOWS = {"pre2008": "pre_crisis_window", "crisis": "crisis_window"}

# rows computed from other printed rows: (those rows, the rule)
DERIVED = {
    "x_intercept": (("intercept", "slope"), lambda t: -t["intercept"] / t["slope"]),
    "r2": (("correlation",), lambda t: t["correlation"] ** 2),
    "s_for_residual": (("sigma",), lambda t: t["sigma"] * math.sqrt(t["n"] / (t["n"] - 1))),
}

# figures the conventions do not reproduce, at their measured values
GAPS = {
    # no residual denominator (n - 2, n - 1, n) gives the printed 1.5443
    ("crisis_window", "ols", "sigma_slope"): 1.4919,
    ("pre_crisis_window", "ols", "sigma_slope"): 1.5716,  # printed 1.6061
    # printed s / sigma is 1.01059, against sqrt(49/48) = 1.01036
    ("pre_crisis_window", "ols", "s_for_residual"): 0.0248034,  # printed 0.024809
    ("crisis_window", "ssf", "zeta"): 0.00105,  # printed 0.00245
    ("pre_crisis_window", "ssf", "zeta"): 0.020706,  # printed 0.020584
    ("pre_crisis_window", "ssf", "sigma"): 0.024717,  # printed 0.024715
    ("pre_crisis_window", "ssf", "s_for_residual"): 0.024973,  # printed 0.024976
    # n * sigma^2 / sigma_ref^2 with the printed scales, sigma_ref the OLS s
    ("crisis_window", "ssf", "chi2"): 36.41,  # printed 37.47
    ("pre_crisis_window", "ssf", "chi2"): 48.63,  # printed 106.66
}


def half_unit(value: float) -> float:
    """Half a unit of the last digit of a printed figure."""
    return 0.5 * 10.0 ** Decimal(repr(value)).as_tuple().exponent


def tolerance(table: dict, row: str) -> float:
    """Half a unit of a printed row, plus the rounding of the rows it derives from."""
    tol = half_unit(table[row])
    if row in DERIVED:
        inputs, rule = DERIVED[row]
        at = rule(table)
        boxes = [(table[k] - half_unit(table[k]), table[k] + half_unit(table[k])) for k in inputs]
        tol += max(abs(rule({**table, **dict(zip(inputs, corner))}) - at)
                   for corner in itertools.product(*boxes))
    return tol


def _unit(values: list[float]) -> list[float]:
    mean = math.fsum(values) / len(values)
    centred = [v - mean for v in values]
    norm = math.sqrt(math.fsum(v * v for v in centred))
    return [v / norm for v in centred]


def twin(table: dict, residual=math.sin) -> tuple[list[float], list[float]]:
    """n (d, f) points whose OLS moments are those of a printed OLS table.

    The residuals follow ``residual`` over one period; any shape orthogonal
    to the constant and to the cosine gives the same moments.
    """
    n, slope, r = table["n"], table["slope"], table["correlation"]
    ssr = n * table["sigma"] ** 2
    syy = ssr / (1.0 - r * r)
    sxx = r * r * syy / (slope * slope)
    # sigma_intercept = s * sqrt(1/n + x_mean^2 / Sxx) with s^2 = SSR / (n - 2);
    # a default rate is positive, so x_mean is the positive root
    x_mean = math.sqrt(sxx * (table["sigma_intercept"] ** 2 * (n - 2) / ssr - 1.0 / n))
    y_mean = table["intercept"] + slope * x_mean
    u = _unit([math.cos(2.0 * math.pi * k / n) for k in range(n)])
    v = _unit([residual(2.0 * math.pi * k / n) for k in range(n)])
    d = [x_mean + math.sqrt(sxx) * a for a in u]
    f = [y_mean + slope * (di - x_mean) + math.sqrt(ssr) * b for di, b in zip(d, v)]
    return d, f


def rate_sample(d: list[float], f: list[float]) -> RateSeries:
    # the estimators read only d and f; the quarters need only be contiguous
    return RateSeries(tuple(RatePoint(Quarter(2000, 1).shift(i), di, fi, F_SOURCE_BALANCE)
                            for i, (di, fi) in enumerate(zip(d, f))))


def reproduced(key: str) -> dict[tuple[str, str], float]:
    """Each printed figure of a window, as the pipeline's conventions give it."""
    doc = published()[key]
    d, f = twin(doc["ols"])
    fitted = ols.fit(d, f)
    estimate = ssp_least_squares(rate_sample(d, f))
    ssf = doc["ssf"]
    figures = {("ols", row): getattr(fitted, row) for row in doc["ols"]}
    figures |= {("ssf", row): getattr(estimate, row) for row in ssf}
    # chi2 = n * sigma^2 / sigma_ref^2 for any sample, so the printed scales give it
    figures["ssf", "chi2"] = ssf["n"] * (ssf["sigma"] / doc["ols"]["s_for_residual"]) ** 2
    return figures


@pytest.mark.parametrize("key", WINDOWS.values())
def test_each_printed_figure_is_reproduced_or_a_named_gap(key):
    doc = published()[key]
    wrong = []
    for (section, row), value in reproduced(key).items():
        printed, gap = doc[section][row], GAPS.get((key, section, row))
        close = abs(value - printed) <= tolerance(doc[section], row)
        if gap is None and not close:
            wrong.append(f"{section}.{row}: {value:.8g}, printed {printed}")
        elif gap is not None and (close or abs(value - gap) > half_unit(gap)):
            wrong.append(f"{section}.{row}: {value:.8g}, pinned gap {gap}, printed {printed}")
    assert wrong == []


@pytest.mark.parametrize("key", WINDOWS.values())
def test_zeta_depends_on_the_order_of_the_d_values_below_the_printed_digits(key):
    doc = published()[key]
    samples = [twin(doc["ols"]), twin(doc["ols"], residual=lambda a: math.cos(2.0 * a))]
    fits = [ols.fit(d, f) for d, f in samples]
    assert fits[1] == pytest.approx(fits[0], rel=1e-9)
    zetas = [ssp_least_squares(rate_sample(d, f)).zeta for d, f in samples]
    assert 0.0 < abs(zetas[1] - zetas[0]) < half_unit(doc["ssf"]["zeta"])


@pytest.mark.parametrize("name, key", WINDOWS.items())
def test_named_window_is_the_published_window(name, key):
    # a synthetic series over 1995-Q4..2012-Q2 holds both windows
    series, _ = generate(steady_scenario(n_quarters=67, start=Quarter(1995, 4), seed=1))
    report = analyze(series, NAMED_WINDOWS[name])
    assert to_json_dict(report)["window"] == published()[key]["window"]
    assert report.n == published()[key]["ols"]["n"]
