import dataclasses
import json
from pathlib import Path

import pytest

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
