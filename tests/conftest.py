import dataclasses
import json
from pathlib import Path

import pytest

from steadycredit.ols import OlsFit
from steadycredit.series import CreditObservation, CreditSeries, Quarter
from steadycredit.synth import Scenario, generate


REFERENCE_STATISTICS = Path(__file__).resolve().parents[1] / "docs" / "reference_statistics.json"


def published() -> dict:
    """The published headline statistics of the two canonical windows.

    The raw Banca d'Italia series is not redistributable, so its printed
    table rows are shipped as ``docs/reference_statistics.json``, the one
    copy the tests read.
    """
    return json.loads(REFERENCE_STATISTICS.read_text(encoding="utf-8"))


# Every stage of the whole window succeeds, with least-squares zeta
# -0.9999999999999998 after a default rate of 1 - 1.1e-16, but the trajectory's
# cumulative index, divided by 1 + zeta each quarter, overflows to inf.
OVERFLOWING_INDEX_CSV = "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n" + "".join(
    f"{Quarter(2008, 1).shift(i)},{tcu},{abd},,\n" for i, (tcu, abd) in enumerate(
        [("1e9", "0"), ("2.3e-07", "999999999.9999999")]
        + [("2.3e-07", ("0", "2.3e-10", "4.6e-10")[i % 3]) for i in range(22)]))

# The least-squares zeta of this series is exactly -1, so s = 1 / (1 + zeta)
# is undefined; the irr-root falls above its cap.
UNIT_ZETA_CSV = (
    "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
    "2000-Q1,1.5060646339770115e+263,0.0,1.96756545905645e-295,\n"
    "2000-Q2,1.997750115153093e+215,1.5060646161394967e+263,2.8396117211645614e-232,\n"
    "2000-Q3,1.1171875632981821e+215,4.419300797491853e+214,1.302449747926975e-299,\n"
    "2000-Q4,1.3268754333182286e+191,1.117187563298182e+215,,\n"
    "2001-Q1,2.5283619206029445e-188,1.3268754333180462e+191,1.7112809645440625e+54,\n"
)

# Loans of 1e150 on a credit stock of 1: the steady-state fit is exact (zeta =
# 1e150), but the OLS standard errors and residual scales overflow to inf, so
# the estimators' default chi-squared scale is their own s_for_residual.
OLS_SCALE_OVERFLOW_CSV = (
    "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
    "2008-Q1,1.0,0.0,,\n"
    "2008-Q2,1.0,0.0,1e+150,\n"
    "2008-Q3,1.0,0.5,1e+150,\n"
    "2008-Q4,1.0,0.9999999999999999,1e+150,\n"
    "2009-Q1,1.0,0.25,1e+150,\n"
)

# A credit-to-GDP ratio that jumps from 1e-298 to 1.7e308 percent: its HP
# trend overshoots the float range. Zero new loans keep every growth rate
# finite, so an analysis reaches its gap stage.
HP_OVERFLOW_CSV = "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n" + "".join(
    f"{Quarter(2008, 1).shift(i)},{tcu},0,0,0.25\n"
    for i, tcu in enumerate(["1e-300"] * 4 + ["1.7e306"] * 4))


def build_series(tcu, abd=None, loans=None, gdp=None, start=Quarter(2008, 1)):
    """Assemble a CreditSeries from parallel value lists."""
    n = len(tcu)
    abd = abd if abd is not None else [0.0] * n
    loans = loans if loans is not None else [None] * n
    gdp = gdp if gdp is not None else [None] * n
    obs = tuple(
        CreditObservation(start.shift(i), tcu[i], abd[i], loans[i], gdp[i])
        for i in range(n)
    )
    return CreditSeries(obs)


def steady_scenario(**overrides) -> Scenario:
    """Noiseless steady-state scenario with a sinusoidal default rate."""
    params = dict(
        n_quarters=18,
        start=Quarter(2008, 1),
        tcu0=9.0e11,
        d_base=0.004,
        d_amp=0.002,
        d_period_quarters=8,
        zeta_true=0.00245,
        noise_sigma=0.0,
        hypothesis="H1",
        seed=42,
    )
    params.update(overrides)
    return Scenario(**params)


def scenario_to_text(sc: Scenario) -> str:
    """The scenario as the key=value text ``synth.parse_scenario`` reads back."""
    lines = []
    for name, value in sc._asdict().items():
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{name}={value}")
    return "\n".join(lines) + "\n"


def residuals(fitted: OlsFit, x, y) -> list[float]:
    """The fit's residuals y - intercept - slope * x."""
    return [float(b) - fitted.intercept - fitted.slope * float(a) for a, b in zip(x, y)]


def canonical_series() -> CreditSeries:
    """Deterministic series spanning 2005-Q1..2013-Q2 with a GDP column.

    This is the fixture behind the committed golden report and chart.
    """
    scenario = steady_scenario(
        n_quarters=34,
        start=Quarter(2005, 1),
        noise_sigma=0.004,
        seed=20250810,
    )
    series, _ = generate(scenario)
    observations = tuple(
        dataclasses.replace(obs, gdp=4.0e11 * 1.005**i)
        for i, obs in enumerate(series.observations)
    )
    return CreditSeries(observations)


@pytest.fixture
def two_quarter_csv() -> str:
    return (
        "quarter,tcu_eur,abd_eur,loans_eur,gdp_eur\n"
        "2008-Q2,910e9,3.6e9,18e9,\n"
        "2008-Q3,915e9,3.8e9,19e9,\n"
    )
