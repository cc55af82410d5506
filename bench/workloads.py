"""Inputs and operations of the three benchmark workloads.

Every input is built from the benchmark seed with ``synth.generate``; the
package itself only ever receives the generated series or CSV text.

- ``cli-cold``: one ``python -m steadycredit.cli analyze`` process on the
  67-quarter CSV.
- ``window-sweep``: ``analyze`` + ``to_json`` on one window of the 67-quarter
  series, cycling through all windows of at least 8 quarters in a seeded
  shuffled order.
- ``long-series``: ``parse_csv`` of the 1001-quarter CSV, ``analyze`` of the
  full window, ``to_json`` and ``render_svg(kind="exhibit2")``.

The reference outputs of the warm workloads are built in another process
and, for the sweep, another order; ``checks.py`` compares against them.
"""

from __future__ import annotations

import dataclasses
import random

from checks import NOISE_SIGMA, ZETA_TRUE, check_report_json, digest
from steadycredit import report, series, synth
from steadycredit.series import CreditSeries, Quarter, Window

PAPER_QUARTERS = 67
LONG_QUARTERS = 1001
MIN_WINDOW_QUARTERS = 8


def scenario_series(n_quarters: int, seed: int) -> CreditSeries:
    """The paper-sized H1 scenario with a GDP column of 4e11 * 1.005**i."""
    sc = synth.Scenario(
        n_quarters=n_quarters,
        start=Quarter(1995, 4),
        tcu0=9.0e11,
        d_base=0.004,
        d_amp=0.002,
        d_period_quarters=8,
        zeta_true=ZETA_TRUE,
        noise_sigma=NOISE_SIGMA,
        hypothesis=synth.HYPOTHESIS_STEADY_STATE,
        seed=seed,
    )
    generated, _ = synth.generate(sc)
    return CreditSeries(tuple(
        dataclasses.replace(obs, gdp=4.0e11 * 1.005**i)
        for i, obs in enumerate(generated.observations)
    ))


def all_windows(s: CreditSeries) -> list[Window]:
    """Every inclusive window of at least MIN_WINDOW_QUARTERS quarters, sorted."""
    quarters = s.quarters()
    return [
        Window(quarters[i], quarters[j], True, True)
        for i in range(len(quarters))
        for j in range(i + MIN_WINDOW_QUARTERS - 1, len(quarters))
    ]


def sweep_op(s: CreditSeries, window: Window) -> str:
    return report.to_json(report.analyze(s, window))


def long_op(csv_text: str) -> tuple[str, str]:
    rep = report.analyze(series.parse_csv(csv_text))
    return report.to_json(rep), report.render_svg(rep, kind=report.KIND_SCATTER)


class SweepInputs:
    """The 67-quarter series and its windows in the seeded timed order."""

    def __init__(self, seed: int):
        self.series = scenario_series(PAPER_QUARTERS, seed)
        self.windows = all_windows(self.series)
        self.order = list(range(len(self.windows)))
        random.Random(seed).shuffle(self.order)

    def op(self, key: int) -> tuple[str]:
        return (sweep_op(self.series, self.windows[key]),)

    def reference(self) -> dict[int, tuple[str, list[str]]]:
        """Digest and problems of every window, visited in sorted order."""
        out = {}
        for key, window in enumerate(self.windows):
            text = sweep_op(self.series, window)
            out[key] = (digest(text), check_report_json(text))
        return out


class LongInputs:
    """The 1001-quarter CSV text; every op runs the same input (key 0)."""

    def __init__(self, seed: int):
        self.csv_text = series.emit_csv(scenario_series(LONG_QUARTERS, seed))
        self.order = [0]

    def op(self, key: int) -> tuple[str, str]:
        return long_op(self.csv_text)

    def reference(self) -> dict[int, tuple[str, list[str]]]:
        text, svg = long_op(self.csv_text)
        return {0: (digest(text, svg), check_report_json(text))}


def write_cli_input(seed: int, csv_path: str) -> list:
    """Write the 67-quarter CSV; return the digest and problems of what
    ``steadycredit analyze`` must print for it."""
    csv_text = series.emit_csv(scenario_series(PAPER_QUARTERS, seed))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    expected = report.to_json(report.analyze(series.parse_csv(csv_text)))
    return [digest(expected), check_report_json(expected)]
